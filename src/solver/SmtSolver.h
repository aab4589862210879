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
/// Every decision builds a fresh SAT instance from the formula alone, so
/// its cost depends on the formula, not on how many decisions came
/// before. Path exploration gets its incrementality one level up, from
/// AssertionStack's verdict cache, unsat-prefix cut and model pool. A
/// native stack (one persistent instance with per-frame activation
/// literals) lost to this on the analysis benchmarks and was removed;
/// DESIGN.md §14 has the numbers.
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
