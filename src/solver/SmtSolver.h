//===--- SmtSolver.h - DPLL(T) SMT backend ("smtlite") ----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's default solver backend — the stand-in for STP in the
/// paper's prototype, registered with SolverFactory as "smtlite".
/// Satisfiability of quantifier-free formulas over booleans and linear
/// integer arithmetic is decided with a lazy DPLL(T) loop: Tseitin
/// encoding to CNF, CDCL SAT search, and theory-checking of the integer
/// atoms in each propositional model, with unsat cores turned into
/// blocking clauses.
///
/// If-then-else integer terms (from the SEIf-Defer rule and the
/// null-pointer encoding of Section 4.1) are lowered to fresh variables
/// with guarded defining equations.
///
/// A formula that is a conjunction of literals over ITE-free atoms (a
/// path condition) has exactly one propositional model, so it skips the
/// loop: its atoms, deduplicated in first-occurrence order, go straight
/// to one Fourier-Motzkin check. The choice is made from the formula's
/// shape alone; the verdict and model are the ones the loop would give.
///
/// Every decision builds a fresh SAT instance from the formula alone, so
/// its cost depends on the formula, not on how many decisions came
/// before. Path exploration saves decisions one level up: each path of
/// the mini-C executor carries a witness model of its path condition
/// and asks the backend only about the branch side that model does not
/// satisfy. DESIGN.md §14 has the numbers.
///
/// The shared solver surface (SolveResult, SmtModel, SmtOptions,
/// QueryCache, the convenience verdict helpers) lives in ISolver.h.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_SMTSOLVER_H
#define MIX_SOLVER_SMTSOLVER_H

#include "solver/ISolver.h"

namespace mix::smt {

/// One-shot and reusable SMT queries over a TermArena.
///
/// The solver object is stateless between queries apart from cumulative
/// statistics, so a single instance can serve an entire analysis run.
class SmtSolver : public ISolver {
public:
  explicit SmtSolver(TermArena &Arena, SmtOptions Opts = SmtOptions())
      : ISolver(Arena, Opts) {}

  const char *name() const override { return "smtlite"; }

  /// Cumulative statistics across queries.
  struct Stats {
    uint64_t Queries = 0;
    uint64_t SatCalls = 0;
    uint64_t TheoryChecks = 0;
    uint64_t BlockedModels = 0;
  };
  const Stats &stats() const { return Statistics; }

protected:
  SolveResult decide(const Term *Formula, SmtModel *ModelOut) override;

private:
  Stats Statistics;
};

} // namespace mix::smt

#endif // MIX_SOLVER_SMTSOLVER_H
