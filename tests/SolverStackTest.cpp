//===--- SolverStackTest.cpp - AssertionStack push/pop coverage -----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The incremental assertion stack is the load-bearing abstraction behind
// path exploration (PathSolver pushes branch deltas instead of
// re-solving whole path conditions), so it gets direct coverage here:
// frame semantics (nested push/pop, pop-to-empty, re-assert after pop),
// verdict correctness against from-scratch solving, and the query-saving
// shortcut caches. Every test runs against every registered backend
// (smtlite and dnf), so a backend whose verdicts or models break the
// stack's caches shows up here. One more test pins the per-decision
// work of a long-lived stack: it must not grow with the stack's age.
//
//===----------------------------------------------------------------------===//

#include "solver/AssertionStack.h"
#include "solver/SolverFactory.h"
#include "solver/TermEval.h"

#include <gtest/gtest.h>

#include <random>

using namespace mix::smt;

namespace {

/// Runs \p Body once per registered backend, with a fresh arena, solver,
/// and stack each time. SCOPED_TRACE names the backend on failure.
template <typename Fn> void forEachBackend(Fn Body) {
  for (const std::string &Name : registeredBackends()) {
    SCOPED_TRACE("backend: " + Name);
    TermArena A;
    std::unique_ptr<ISolver> S = createBackend(Name, A, SmtOptions());
    ASSERT_NE(S, nullptr);
    AssertionStack Stack(*S);
    Body(A, *S, Stack);
  }
}

} // namespace

TEST(SolverStackTest, EmptyStackIsSat) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    EXPECT_EQ(St.depth(), 0u);
    EXPECT_EQ(St.numAssertions(), 0u);
    EXPECT_EQ(St.conjunction(), A.trueTerm());
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, NestedFramesRetractInnermost) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    St.push();
    St.assertTerm(A.lt(A.intConst(0), X)); // x > 0
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);

    St.push();
    St.assertTerm(A.lt(X, A.intConst(0))); // x < 0: contradiction
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);

    St.pop(); // retract x < 0
    EXPECT_EQ(St.depth(), 1u);
    SmtModel M;
    ASSERT_EQ(St.checkSat(&M), SolveResult::Sat);
    if (M.Complete) {
      EXPECT_TRUE(evalBool(A.lt(A.intConst(0), X), M));
    }
  });
}

TEST(SolverStackTest, PopToEmptyRestoresTrue) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    St.push();
    St.assertTerm(A.falseTerm());
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop();
    EXPECT_EQ(St.depth(), 0u);
    EXPECT_EQ(St.conjunction(), A.trueTerm());
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, ReAssertAfterPopIsSound) {
  // A formula asserted, popped, and re-asserted must get the same
  // verdict both times — the verdict/unsat caches key on the hash-consed
  // fold, so a stale entry would surface exactly here.
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    const Term *Contradiction =
        A.andTerm(A.lt(X, A.intConst(0)), A.lt(A.intConst(0), X));
    for (int Round = 0; Round != 3; ++Round) {
      St.push();
      St.assertTerm(Contradiction);
      EXPECT_EQ(St.checkSat(), SolveResult::Unsat) << "round " << Round;
      St.pop();
      EXPECT_EQ(St.checkSat(), SolveResult::Sat) << "round " << Round;
    }
  });
}

TEST(SolverStackTest, BaseLevelAssertionsSurvivePops) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    // Base-level (no open frame): not retractable.
    St.assertTerm(A.le(A.intConst(5), X)); // x >= 5
    St.push();
    St.assertTerm(A.lt(X, A.intConst(3))); // x < 3: contradiction
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop();
    EXPECT_EQ(St.numAssertions(), 1u);
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    St.push();
    St.assertTerm(A.lt(X, A.intConst(10))); // x < 10: compatible
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, InterleavedSatUnsatFlips) {
  // Alternate between compatible and contradicting deltas across frame
  // boundaries; the Unsat-prefix cut must be invalidated by each pop.
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *P = A.freshBoolVar("p");
    const Term *Q = A.freshBoolVar("q");
    St.push();
    St.assertTerm(P);
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    St.push();
    St.assertTerm(A.notTerm(P));
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.push();
    St.assertTerm(Q); // extension of an unsat prefix stays unsat
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop();
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    St.pop(); // back to just p
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    St.push();
    St.assertTerm(Q);
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
  });
}

TEST(SolverStackTest, UnsatPrefixCutAnswersWithoutQueries) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *P = A.freshBoolVar("p");
    St.push();
    St.assertTerm(A.andTerm(P, A.notTerm(P)));
    EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    uint64_t QueriesAfterPrefix = St.stats().Queries;
    for (int I = 0; I != 5; ++I) {
      St.push();
      St.assertTerm(A.freshBoolVar());
      EXPECT_EQ(St.checkSat(), SolveResult::Unsat);
    }
    EXPECT_EQ(St.stats().Queries, QueriesAfterPrefix)
        << "extensions of an unsat prefix must not reach the backend";
    EXPECT_GE(St.stats().UnsatPrefixCuts, 5u);
  });
}

TEST(SolverStackTest, ModelReuseAnswersCompatibleExtension) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    St.push();
    St.assertTerm(A.le(A.intConst(0), X)); // x >= 0
    SmtModel M;
    ASSERT_EQ(St.checkSat(&M), SolveResult::Sat);
    if (!M.Complete)
      return; // no model to reuse; nothing to measure
    uint64_t QueriesBefore = St.stats().Queries;
    // A delta the cached model already satisfies (x >= 0 implies x > -1).
    St.push();
    St.assertTerm(A.lt(A.intConst(-1), X));
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    EXPECT_EQ(St.stats().Queries, QueriesBefore)
        << "a delta the cached model satisfies must not reach the backend";
    EXPECT_GE(St.stats().ModelReuses, 1u);
  });
}

TEST(SolverStackTest, RepeatCheckSatIsCached) {
  forEachBackend([](TermArena &A, ISolver &, AssertionStack &St) {
    const Term *X = A.freshIntVar("x");
    St.push();
    St.assertTerm(A.lt(X, A.intConst(7)));
    EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    uint64_t QueriesBefore = St.stats().Queries;
    for (int I = 0; I != 4; ++I)
      EXPECT_EQ(St.checkSat(), SolveResult::Sat);
    EXPECT_EQ(St.stats().Queries, QueriesBefore);
  });
}

namespace {

/// Small pool of variables random branch conditions draw from.
struct VarPool {
  std::vector<const Term *> Ints;
  std::vector<const Term *> Bools;
  explicit VarPool(TermArena &A) {
    for (int I = 0; I != 3; ++I)
      Ints.push_back(A.freshIntVar("x" + std::to_string(I)));
    for (int I = 0; I != 2; ++I)
      Bools.push_back(A.freshBoolVar("p" + std::to_string(I)));
  }
};

/// A random branch condition of the shapes path exploration produces:
/// comparisons over small linear terms, boolean literals, and their
/// negations.
const Term *randomBranch(TermArena &A, const VarPool &V, std::mt19937 &Rng) {
  auto IntOf = [&]() -> const Term * {
    switch (Rng() % 3) {
    case 0:
      return V.Ints[Rng() % V.Ints.size()];
    case 1:
      return A.intConst((long long)(Rng() % 9) - 4);
    default:
      return A.add(V.Ints[Rng() % V.Ints.size()],
                   A.intConst((long long)(Rng() % 5) - 2));
    }
  };
  const Term *C;
  switch (Rng() % 6) {
  case 0:
    C = A.lt(IntOf(), IntOf());
    break;
  case 1:
    C = A.le(IntOf(), IntOf());
    break;
  case 2:
    C = A.eqInt(IntOf(), IntOf());
    break;
  case 3:
    C = V.Bools[Rng() % V.Bools.size()];
    break;
  default:
    C = A.orTerm(V.Bools[Rng() % V.Bools.size()], A.lt(IntOf(), IntOf()));
    break;
  }
  return Rng() % 2 ? C : A.notTerm(C);
}

} // namespace

TEST(SolverStackTest, RandomBranchSequencesMatchFromScratch) {
  // 1000 random push/assert/pop/check sequences per backend: every
  // incremental verdict must equal a from-scratch solve of the same live
  // conjunction on an independent solver instance. The seed is fixed and
  // each sequence is derived from it, so a failure names everything
  // needed to replay it.
  const unsigned BaseSeed = 0x5eed5001;
  for (const std::string &Name : registeredBackends()) {
    SCOPED_TRACE("backend: " + Name);
    TermArena A;
    VarPool V(A);
    std::unique_ptr<ISolver> Inc = createBackend(Name, A, SmtOptions());
    std::unique_ptr<ISolver> Scratch = createBackend(Name, A, SmtOptions());
    ASSERT_TRUE(Inc && Scratch);
    for (unsigned Seq = 0; Seq != 1000; ++Seq) {
      std::mt19937 Rng(BaseSeed + Seq);
      auto St = std::make_unique<AssertionStack>(*Inc);
      // Independent mirror of the live assertions, one vector per frame
      // (index 0 is the base level) — deliberately not derived from the
      // stack's own bookkeeping, so a lost or leaked assertion shows up
      // as a verdict (or fold) mismatch.
      std::vector<std::vector<const Term *>> Frames(1);
      unsigned Ops = 4 + Rng() % 10;
      for (unsigned Op = 0; Op != Ops; ++Op) {
        const Term *Delta;
        switch (Rng() % 4) {
        case 0: // push a branch delta (the common exploration step)
          St->push();
          Frames.emplace_back();
          Delta = randomBranch(A, V, Rng);
          St->assertTerm(Delta);
          Frames.back().push_back(Delta);
          break;
        case 1: // pop, if a frame is open
          if (St->depth() > 0) {
            St->pop();
            Frames.pop_back();
          }
          break;
        case 2: // assert into the current frame
          Delta = randomBranch(A, V, Rng);
          St->assertTerm(Delta);
          Frames.back().push_back(Delta);
          break;
        default:
          break; // checkSat below
        }
        const Term *Whole = A.trueTerm();
        for (const auto &Frame : Frames)
          for (const Term *T : Frame)
            Whole = A.andTerm(Whole, T);
        ASSERT_EQ(St->conjunction(), Whole)
            << "seq " << Seq << " op " << Op
            << ": stack fold diverged from the asserted sequence";
        SolveResult Fast = St->checkSat();
        SolveResult Slow = Scratch->checkSat(Whole);
        ASSERT_EQ(Fast, Slow)
            << "seq " << Seq << " op " << Op << " (seed base 0x" << std::hex
            << BaseSeed << "): incremental " << solveResultName(Fast)
            << " vs from-scratch " << solveResultName(Slow);
      }
    }
  }
}

TEST(SolverStackTest, PerDecisionWorkStaysFlatOverALongLifetime) {
  // 10k sibling-probe cycles through one smtlite stack: push, assert a
  // delta over a fresh variable, checkSat, pop. Every probe's conjunction
  // has the same shape, so a decision late in the stack's life must do
  // the same SAT work as an early one. A backend that carried state
  // across decisions (retired frames, dead variables) would show a
  // growing solver.sat.vars per decision, and its latency would grow
  // with it.
  mix::obs::MetricsRegistry Reg;
  SmtOptions Opts;
  Opts.Metrics = &Reg;
  TermArena A;
  std::unique_ptr<ISolver> S = createBackend("smtlite", A, Opts);
  ASSERT_NE(S, nullptr);
  AssertionStack St(*S);
  const Term *Y = A.freshIntVar("y");
  St.assertTerm(A.le(A.intConst(0), Y)); // base level: y >= 0

  struct Sample {
    uint64_t Vars, Decisions;
  };
  auto Now = [&] {
    return Sample{Reg.counterValue("solver.sat.vars"),
                  Reg.counterValue("solver.queries")};
  };
  const unsigned Cycles = 10000, Window = 1000;
  Sample Begin = Now(), FirstEnd{}, LastBegin{};
  for (unsigned I = 0; I != Cycles; ++I) {
    if (I == Window)
      FirstEnd = Now();
    if (I == Cycles - Window)
      LastBegin = Now();
    St.push();
    // y < x_i is false under the default value x_i = 0, so no cached
    // model answers the probe: each one is a real decision.
    St.assertTerm(A.lt(Y, A.freshIntVar()));
    ASSERT_EQ(St.checkSat(), SolveResult::Sat) << "cycle " << I;
    St.pop();
  }
  Sample End = Now();

  uint64_t FirstDecisions = FirstEnd.Decisions - Begin.Decisions;
  uint64_t LastDecisions = End.Decisions - LastBegin.Decisions;
  ASSERT_GE(End.Decisions - Begin.Decisions, Cycles * 9 / 10)
      << "the shortcut caches answered the probes; nothing was measured";
  ASSERT_GT(FirstDecisions, 0u);
  ASSERT_GT(LastDecisions, 0u);
  // Equal vars per decision, compared by cross-multiplying.
  EXPECT_EQ((FirstEnd.Vars - Begin.Vars) * LastDecisions,
            (End.Vars - LastBegin.Vars) * FirstDecisions)
      << "first " << Window << " cycles: " << FirstEnd.Vars - Begin.Vars
      << " vars over " << FirstDecisions << " decisions; last " << Window
      << ": " << End.Vars - LastBegin.Vars << " over " << LastDecisions;
}
