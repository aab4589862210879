//===--- ConcolicDriver.h - DART-style path exploration ---------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third exploration style Section 3.1 describes: "DART and CUTE, in
/// contrast, would continue down one path as guided by an underlying
/// concrete run, but then would ask an SMT solver later whether the path
/// not taken was feasible and, if so, come back and take it eventually."
///
/// exploreConcolic() runs the executor in Strategy::Concolic repeatedly:
/// each run follows one path under a concrete valuation and records its
/// branch decisions; the driver negates each decision in turn, asks the
/// solver for a model of the flipped prefix (this is why the solver's
/// model extraction exists), and seeds new runs from the models until no
/// unexplored flip remains or the run budget is exhausted.
///
/// When the budget suffices, the paths found are exactly the feasible
/// paths, so MixChecker's exhaustive() accepts them and the mixed
/// analysis stays sound; an exhausted budget surfaces as a resource
/// failure, i.e. a rejection, never a silent hole.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_MIX_CONCOLICDRIVER_H
#define MIX_MIX_CONCOLICDRIVER_H

#include "symexec/SymExecutor.h"

namespace mix {

/// Tuning for the exploration loop.
struct ConcolicOptions {
  /// Upper bound on concrete runs (each run discovers at most one new
  /// path).
  unsigned MaxRuns = 512;
};

/// Outcome of an exploration.
struct ConcolicExploreResult {
  std::vector<PathResult> Paths;
  unsigned Runs = 0;
  /// True when MaxRuns stopped the loop with flips still pending; the
  /// path set may then be incomplete.
  bool BudgetExhausted = false;
};

/// Explores \p Body from \p Init under \p Env. \p Exec must be (or will
/// be put) in Strategy::Concolic for the duration; its previous seed is
/// restored afterwards, so nested explorations compose.
ConcolicExploreResult exploreConcolic(SymExecutor &Exec,
                                      smt::ISolver &Solver,
                                      SymToSmt &Translator, const Expr *Body,
                                      const SymEnv &Env, SymState Init,
                                      ConcolicOptions Opts = ConcolicOptions());

} // namespace mix

#endif // MIX_MIX_CONCOLICDRIVER_H
