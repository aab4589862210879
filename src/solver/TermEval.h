//===--- TermEval.h - Concrete term evaluation ------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Ground evaluation of terms under an SmtModel.
///
/// Evaluation is total: variables the model does not bind take the
/// canonical default (0 / false), matching the SmtModel contract that
/// unmentioned variables are unconstrained. This is the foundation of
/// three features: model validation in the differential-testing harness,
/// the mini-C executor's witness rule (evaluate a branch condition under
/// the path's witness model instead of re-solving), and the brute-force
/// enumerator oracle.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_TERMEVAL_H
#define MIX_SOLVER_TERMEVAL_H

#include "solver/ISolver.h"
#include "solver/Term.h"

namespace mix::smt {

/// Evaluates an integer-sorted term under \p Model (unbound vars = 0).
long long evalInt(const Term *T, const SmtModel &Model);

/// Evaluates a boolean-sorted term under \p Model (unbound vars = false).
bool evalBool(const Term *T, const SmtModel &Model);

} // namespace mix::smt

#endif // MIX_SOLVER_TERMEVAL_H
