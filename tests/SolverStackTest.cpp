//===--- SolverStackTest.cpp - Per-decision work over a long lifetime -----===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// One solver backend serves a whole analysis run, so the work of a
// decision must depend on the formula alone, never on how many
// decisions came before: a backend that carried state across decisions
// (retired frames, dead variables, a growing SAT instance) would show a
// growing solver.sat.vars per decision, and its latency would grow with
// it.
//
//===----------------------------------------------------------------------===//

#include "solver/SolverFactory.h"

#include <gtest/gtest.h>

using namespace mix::smt;

TEST(SolverStackTest, PerDecisionWorkStaysFlatOverALongLifetime) {
  // 10k decisions on one smtlite backend, each over a fresh variable:
  // y >= 0 /\ (y < x_i \/ x_i < -5). The probe is a disjunction, so it
  // takes the DPLL(T) loop and books SAT work; a conjunction of literals
  // would be decided by the direct theory check and book none, which
  // would make the comparison below vacuous.
  mix::obs::MetricsRegistry Reg;
  SmtOptions Opts;
  Opts.Metrics = &Reg;
  TermArena A;
  std::unique_ptr<ISolver> S = createBackend("smtlite", A, Opts);
  ASSERT_NE(S, nullptr);
  const Term *Y = A.freshIntVar("y");
  const Term *Base = A.le(A.intConst(0), Y);

  struct Sample {
    uint64_t Vars, Decisions;
  };
  auto Now = [&] {
    return Sample{Reg.counterValue("solver.sat.vars"),
                  Reg.counterValue("solver.queries")};
  };
  const unsigned Decisions = 10000, Window = 1000;
  Sample Begin = Now(), FirstEnd{}, LastBegin{};
  for (unsigned I = 0; I != Decisions; ++I) {
    if (I == Window)
      FirstEnd = Now();
    if (I == Decisions - Window)
      LastBegin = Now();
    const Term *X = A.freshIntVar();
    const Term *Probe = A.andTerm(
        Base, A.orTerm(A.lt(Y, X), A.lt(X, A.intConst(-5))));
    ASSERT_EQ(S->checkSat(Probe), SolveResult::Sat) << "decision " << I;
  }
  Sample End = Now();

  ASSERT_EQ(End.Decisions - Begin.Decisions, Decisions);
  uint64_t FirstVars = FirstEnd.Vars - Begin.Vars;
  uint64_t LastVars = End.Vars - LastBegin.Vars;
  ASSERT_GT(FirstVars, 0u) << "the probes booked no SAT work";
  EXPECT_EQ(FirstVars, LastVars)
      << "first " << Window << " decisions: " << FirstVars << " vars; last "
      << Window << ": " << LastVars;
}
