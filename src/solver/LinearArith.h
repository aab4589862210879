//===--- LinearArith.h - Linear integer arithmetic theory ------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Decides conjunctions of linear integer constraints for the DPLL(T) loop
/// in SmtSolver. The procedure is Fourier–Motzkin elimination with integer
/// tightening (gcd normalization, floor division of inequality bounds, and
/// a gcd divisibility test for equalities), plus case-splitting on
/// disequalities.
///
/// Completeness notes, which match how the rest of the system uses it:
///  - Unsat answers are always genuine (the elimination is sound), so the
///    symbolic executor never prunes a feasible path and the exhaustive()
///    check of the mix rule TSymBlock never accepts a non-tautology.
///  - Sat answers are sound for rationals; a few integer-only
///    inconsistencies (beyond gcd reasoning) may be reported Sat. That is
///    the conservative direction everywhere in this project.
///  - Resource caps produce Unknown, which clients also treat
///    conservatively.
///
/// Unsat results carry an unsat core (indices of contributing input
/// constraints), which SmtSolver turns into small blocking clauses.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_LINEARARITH_H
#define MIX_SOLVER_LINEARARITH_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace mix::smt {

/// Relation of a linear constraint `Sum coeff_i * x_i  REL  Rhs`.
enum class LinRel {
  Eq, ///< equal
  Le, ///< less-or-equal
  Ne, ///< not equal
};

/// A linear constraint over integer variables.
struct LinConstraint {
  /// Variable id -> coefficient. Zero coefficients are never stored.
  std::map<unsigned, long long> Coeffs;
  LinRel Rel = LinRel::Le;
  long long Rhs = 0;

  std::string str() const;
};

/// Verdict of a theory check.
enum class LiaVerdict { Sat, Unsat, Unknown };

/// Result of a theory check; Core is meaningful only for Unsat and holds
/// indices into the input constraint vector. On Sat, Model holds a
/// satisfying integer assignment when extraction succeeded (HasModel):
/// values are reconstructed by back-substitution through the elimination
/// history, variables never mentioned default to 0.
struct LiaResult {
  LiaVerdict Verdict = LiaVerdict::Unknown;
  std::vector<unsigned> Core;
  bool HasModel = false;
  std::map<unsigned, long long> Model;
};

/// Configuration knobs for the decision procedure.
struct LiaOptions {
  /// Maximum number of disequalities to case-split before giving up.
  unsigned MaxDisequalitySplits = 12;
  /// Maximum number of working constraints during elimination.
  unsigned MaxConstraints = 20000;
  /// Largest coefficient magnitude allowed before giving up (overflow
  /// guard; combinations use 128-bit intermediates).
  long long MaxCoefficient = (1LL << 40);
};

/// Checks satisfiability of the conjunction of \p Constraints over the
/// integers.
LiaResult checkLinearConjunction(const std::vector<LinConstraint> &Constraints,
                                 const LiaOptions &Opts = LiaOptions());

} // namespace mix::smt

#endif // MIX_SOLVER_LINEARARITH_H
