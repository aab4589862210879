//===--- AutoPlacement.h - Automatic symbolic-block insertion ---*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The refinement loop the paper envisions but leaves to future work:
/// "we leave the placement of block annotations to the programmer, but we
/// envision that an automated refinement algorithm could heuristically
/// insert blocks as needed" (Section 1), elaborated in Section 4.6 as
/// "begin with just typed blocks and then incrementally add symbolic
/// blocks to refine the result. This approach resembles abstraction
/// refinement."
///
/// The heuristic here: type check; on failure, walk the ancestor chain of
/// the error location from the innermost enclosing expression outward,
/// wrapping each candidate in a symbolic block and re-checking; commit
/// the first wrap that makes the program check (or that moves the error,
/// enabling progress on multi-error programs); repeat up to a refinement
/// budget.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_MIX_AUTOPLACEMENT_H
#define MIX_MIX_AUTOPLACEMENT_H

#include "mix/MixChecker.h"

namespace mix {

/// Outcome of the refinement loop.
struct AutoPlacementResult {
  /// The (possibly annotated) program; the original when no refinement
  /// was needed or none helped.
  const Expr *Program = nullptr;
  /// The program type when checking succeeded; null when refinement gave
  /// up (the last failure's diagnostics are in the engine passed in).
  const Type *ResultType = nullptr;
  unsigned BlocksInserted = 0;
  unsigned Refinements = 0;
};

/// Options for the refinement loop.
struct AutoPlacementOptions {
  MixOptions Mix;
  unsigned MaxRefinements = 8;
};

/// Runs the abstraction-refinement loop on \p Program under \p Gamma.
/// Diagnostics for the final (successful or failed) check are reported to
/// \p Diags; intermediate attempts stay silent.
AutoPlacementResult
autoPlaceSymbolicBlocks(AstContext &Ctx, const Expr *Program,
                        const TypeEnv &Gamma, DiagnosticEngine &Diags,
                        AutoPlacementOptions Opts = AutoPlacementOptions());

} // namespace mix

#endif // MIX_MIX_AUTOPLACEMENT_H
