//===--- DnfSolver.h - DNF/Fourier-Motzkin solver backend -------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The project's second solver backend, registered as "dnf": lower
/// if-then-else terms, convert to negation normal form, expand to a
/// (capped) disjunction of cubes, and decide each cube's integer atoms
/// with the Fourier-Motzkin linear-arithmetic core directly — no SAT
/// solver involved. Exact on formulas whose DNF fits under the cube cap;
/// Unknown beyond it (a resource cap, handled conservatively like every
/// other Unknown).
///
/// The point of a second backend is not speed (enumeration loses to CDCL
/// past small formulas) but *independence*: it shares only the
/// term language, the atom translation, and the per-cube arithmetic
/// check (decideCube, which smtlite runs on a formula that is one
/// conjunction of literals) with smtlite, so the cross-backend
/// differential harness (SolverDiffTest) exercises genuinely different
/// decision paths; its brute-force oracle shares none of them.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_DNFSOLVER_H
#define MIX_SOLVER_DNFSOLVER_H

#include "solver/ISolver.h"

namespace mix::smt {

/// DNF-expansion backend over the Fourier-Motzkin core.
class DnfSolver : public ISolver {
public:
  explicit DnfSolver(TermArena &Arena, SmtOptions Opts = SmtOptions())
      : ISolver(Arena, Opts) {}

  const char *name() const override { return "dnf"; }

protected:
  SolveResult decide(const Term *Formula, SmtModel *ModelOut) override;
};

} // namespace mix::smt

#endif // MIX_SOLVER_DNFSOLVER_H
