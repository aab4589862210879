//===--- SmtInternals.h - Shared solver-backend machinery -------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Encoding machinery shared by the solver backends: if-then-else
/// lowering, linearization of integer terms, the Tseitin CNF encoder, the
/// atom-to-constraint translation, and the direct check of a conjunction
/// of literals. Formerly private to SmtSolver.cpp; hoisted so the dnf
/// backend uses the exact same translation as smtlite (a prerequisite for
/// meaningful differential testing — backends must disagree only through
/// their decision procedures, never through divergent encodings).
///
/// Internal header: not part of the solver's public surface.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SOLVER_SMTINTERNALS_H
#define MIX_SOLVER_SMTINTERNALS_H

#include "solver/ISolver.h"
#include "solver/LinearArith.h"
#include "solver/Sat.h"
#include "solver/Term.h"

#include <cassert>
#include <map>
#include <unordered_map>
#include <vector>

namespace mix::smt::detail {

/// Rewrites away IteInt terms: each distinct if-then-else integer term is
/// replaced by a fresh integer variable constrained by guarded defining
/// equations. The rewrite is equisatisfiability-preserving. One lowering
/// serves one query: each distinct IteInt gets one variable however often
/// the formula shares it.
class IteLowering {
public:
  explicit IteLowering(TermArena &Arena) : Arena(Arena) {}

  const Term *lower(const Term *T) {
    auto It = Cache.find(T);
    if (It != Cache.end())
      return It->second;
    const Term *Result = lowerUncached(T);
    Cache[T] = Result;
    return Result;
  }

  /// Defining constraints accumulated for introduced variables.
  const std::vector<const Term *> &definitions() const { return Defs; }

private:
  const Term *lowerUncached(const Term *T) {
    switch (T->kind()) {
    case TermKind::IntConst:
    case TermKind::IntVar:
    case TermKind::BoolConst:
    case TermKind::BoolVar:
      return T;
    case TermKind::IteInt: {
      const Term *Cond = lower(T->operand(0));
      const Term *Then = lower(T->operand(1));
      const Term *Else = lower(T->operand(2));
      const Term *Fresh = Arena.freshIntVar("ite");
      Defs.push_back(Arena.implies(Cond, Arena.eqInt(Fresh, Then)));
      Defs.push_back(
          Arena.implies(Arena.notTerm(Cond), Arena.eqInt(Fresh, Else)));
      return Fresh;
    }
    case TermKind::Add:
      return Arena.add(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::Sub:
      return Arena.sub(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::Neg:
      return Arena.neg(lower(T->operand(0)));
    case TermKind::MulConst:
      return Arena.mulConst(T->value(), lower(T->operand(0)));
    case TermKind::EqInt:
      return Arena.eqInt(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::Lt:
      return Arena.lt(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::Le:
      return Arena.le(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::EqBool:
      return Arena.eqBool(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::Not:
      return Arena.notTerm(lower(T->operand(0)));
    case TermKind::And:
      return Arena.andTerm(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::Or:
      return Arena.orTerm(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::Implies:
      return Arena.implies(lower(T->operand(0)), lower(T->operand(1)));
    case TermKind::IteBool:
      return Arena.iteBool(lower(T->operand(0)), lower(T->operand(1)),
                           lower(T->operand(2)));
    }
    assert(false && "unhandled term kind in lowering");
    return T;
  }

  TermArena &Arena;
  std::unordered_map<const Term *, const Term *> Cache;
  std::vector<const Term *> Defs;
};

/// A linear view of an integer term: Coeffs * vars + Const.
struct LinSum {
  std::map<unsigned, long long> Coeffs;
  long long Const = 0;
};

/// Converts a lowered (IteInt-free) integer term to a LinSum.
inline LinSum linearize(const Term *T) {
  switch (T->kind()) {
  case TermKind::IntConst: {
    LinSum S;
    S.Const = T->value();
    return S;
  }
  case TermKind::IntVar: {
    LinSum S;
    S.Coeffs[T->varId()] = 1;
    return S;
  }
  case TermKind::Add: {
    LinSum L = linearize(T->operand(0));
    LinSum R = linearize(T->operand(1));
    for (const auto &[V, C] : R.Coeffs)
      L.Coeffs[V] += C;
    L.Const += R.Const;
    return L;
  }
  case TermKind::Sub: {
    LinSum L = linearize(T->operand(0));
    LinSum R = linearize(T->operand(1));
    for (const auto &[V, C] : R.Coeffs)
      L.Coeffs[V] -= C;
    L.Const -= R.Const;
    return L;
  }
  case TermKind::Neg: {
    LinSum S = linearize(T->operand(0));
    for (auto &[V, C] : S.Coeffs) {
      (void)V;
      C = -C;
    }
    S.Const = -S.Const;
    return S;
  }
  case TermKind::MulConst: {
    LinSum S = linearize(T->operand(0));
    for (auto &[V, C] : S.Coeffs) {
      (void)V;
      C *= T->value();
    }
    S.Const *= T->value();
    return S;
  }
  default:
    assert(false && "non-linear integer term after lowering");
    return LinSum();
  }
}

/// Tseitin encoder: maps boolean terms to SAT literals, emitting the
/// defining clauses for composite connectives. Integer atoms are recorded
/// so the theory loop can look them up per model. The cache gives each
/// shared subterm one literal.
class TseitinEncoder {
public:
  explicit TseitinEncoder(SatSolver &Sat) : Sat(Sat) {}

  /// Atoms with integer content, paired with their SAT variable.
  struct TheoryAtom {
    const Term *Atom;
    unsigned SatVar;
  };

  Lit encode(const Term *T) {
    auto It = Cache.find(T);
    if (It != Cache.end())
      return It->second;
    Lit L = encodeUncached(T);
    Cache[T] = L;
    return L;
  }

  const std::vector<TheoryAtom> &theoryAtoms() const { return Atoms; }

  /// SAT variables standing for the formula's free boolean variables.
  const std::unordered_map<unsigned, Lit> &boolVarLits() const {
    return BoolVarLits;
  }

private:
  Lit freshVarLit() { return Lit(Sat.newVar(), /*Negated=*/false); }

  Lit encodeUncached(const Term *T) {
    assert(T->isBool() && "Tseitin encoding of a non-boolean term");
    switch (T->kind()) {
    case TermKind::BoolConst: {
      // Arena simplification folds constants away except (possibly) at the
      // root; represent with a fresh variable forced to the right value.
      Lit P = freshVarLit();
      Sat.addClause({T->value() ? P : ~P});
      return P;
    }
    case TermKind::BoolVar: {
      auto BIt = BoolVarLits.find(T->varId());
      if (BIt != BoolVarLits.end())
        return BIt->second;
      Lit P = freshVarLit();
      BoolVarLits[T->varId()] = P;
      return P;
    }
    case TermKind::EqInt:
    case TermKind::Lt:
    case TermKind::Le: {
      Lit P = freshVarLit();
      Atoms.push_back({T, P.var()});
      return P;
    }
    case TermKind::Not:
      return ~encode(T->operand(0));
    case TermKind::And: {
      Lit A = encode(T->operand(0));
      Lit B = encode(T->operand(1));
      Lit P = freshVarLit();
      Sat.addClause({~P, A});
      Sat.addClause({~P, B});
      Sat.addClause({P, ~A, ~B});
      return P;
    }
    case TermKind::Or: {
      Lit A = encode(T->operand(0));
      Lit B = encode(T->operand(1));
      Lit P = freshVarLit();
      Sat.addClause({~P, A, B});
      Sat.addClause({P, ~A});
      Sat.addClause({P, ~B});
      return P;
    }
    case TermKind::EqBool: {
      Lit A = encode(T->operand(0));
      Lit B = encode(T->operand(1));
      Lit P = freshVarLit();
      Sat.addClause({~P, ~A, B});
      Sat.addClause({~P, A, ~B});
      Sat.addClause({P, A, B});
      Sat.addClause({P, ~A, ~B});
      return P;
    }
    case TermKind::IteBool: {
      Lit C = encode(T->operand(0));
      Lit A = encode(T->operand(1));
      Lit B = encode(T->operand(2));
      Lit P = freshVarLit();
      Sat.addClause({~P, ~C, A});
      Sat.addClause({~P, C, B});
      Sat.addClause({P, ~C, ~A});
      Sat.addClause({P, C, ~B});
      return P;
    }
    case TermKind::Implies: {
      Lit A = encode(T->operand(0));
      Lit B = encode(T->operand(1));
      Lit P = freshVarLit();
      Sat.addClause({~P, ~A, B});
      Sat.addClause({P, A});
      Sat.addClause({P, ~B});
      return P;
    }
    default:
      assert(false && "unexpected boolean term kind");
      return freshVarLit();
    }
  }

  SatSolver &Sat;
  std::unordered_map<const Term *, Lit> Cache;
  std::unordered_map<unsigned, Lit> BoolVarLits;
  std::vector<TheoryAtom> Atoms;
};

/// Converts a polarity-assigned integer atom to a LinConstraint.
inline LinConstraint atomToConstraint(const Term *Atom, bool Positive) {
  LinSum L = linearize(Atom->operand(0));
  LinSum R = linearize(Atom->operand(1));
  // Combine as lhs - rhs: Coeffs * x + K  REL  0, i.e. Coeffs * x REL -K.
  LinConstraint C;
  C.Coeffs = std::move(L.Coeffs);
  for (const auto &[V, Coeff] : R.Coeffs)
    C.Coeffs[V] -= Coeff;
  long long K = L.Const - R.Const;

  switch (Atom->kind()) {
  case TermKind::EqInt:
    if (Positive) {
      C.Rel = LinRel::Eq;
      C.Rhs = -K;
    } else {
      C.Rel = LinRel::Ne;
      C.Rhs = -K;
    }
    return C;
  case TermKind::Lt:
    if (Positive) {
      // lhs - rhs < 0  ==>  Coeffs <= -K - 1
      C.Rel = LinRel::Le;
      C.Rhs = -K - 1;
    } else {
      // lhs >= rhs  ==>  -(Coeffs) <= K
      for (auto &[V, Coeff] : C.Coeffs) {
        (void)V;
        Coeff = -Coeff;
      }
      C.Rel = LinRel::Le;
      C.Rhs = K;
    }
    return C;
  case TermKind::Le:
    if (Positive) {
      C.Rel = LinRel::Le;
      C.Rhs = -K;
    } else {
      // lhs > rhs  ==>  -(Coeffs) <= K - 1
      for (auto &[V, Coeff] : C.Coeffs) {
        (void)V;
        Coeff = -Coeff;
      }
      C.Rel = LinRel::Le;
      C.Rhs = K - 1;
    }
    return C;
  default:
    assert(false && "not an integer atom");
    return C;
  }
}

/// A literal of a conjunction: an atom (EqInt/Lt/Le or BoolVar) with a
/// polarity.
struct CubeLit {
  const Term *Atom;
  bool Positive;
};

/// A conjunction of literals.
using Cube = std::vector<CubeLit>;

/// Decides the conjunction \p C without a SAT search: its boolean
/// literals must agree with each other, and its integer literals,
/// translated in order, make one Fourier-Motzkin check. On Sat,
/// \p ModelOut (when given) receives the boolean assignment and the
/// theory's integer model. The dnf backend runs this once per cube;
/// smtlite runs it on a formula that is one conjunction of literals.
inline SolveResult decideCube(const Cube &C, const LiaOptions &Opts,
                              SmtModel *ModelOut) {
  std::map<unsigned, bool> BoolAssign;
  std::vector<LinConstraint> Constraints;
  for (const CubeLit &L : C) {
    switch (L.Atom->kind()) {
    case TermKind::BoolVar: {
      auto [It, Inserted] = BoolAssign.try_emplace(L.Atom->varId(),
                                                   L.Positive);
      if (!Inserted && It->second != L.Positive)
        return SolveResult::Unsat;
      break;
    }
    case TermKind::EqInt:
    case TermKind::Lt:
    case TermKind::Le:
      Constraints.push_back(atomToConstraint(L.Atom, L.Positive));
      break;
    default:
      assert(false && "unexpected cube literal");
      break;
    }
  }

  LiaResult R;
  if (!Constraints.empty()) {
    R = checkLinearConjunction(Constraints, Opts);
    if (R.Verdict == LiaVerdict::Unsat)
      return SolveResult::Unsat;
    if (R.Verdict == LiaVerdict::Unknown)
      return SolveResult::Unknown;
  }
  if (ModelOut) {
    *ModelOut = SmtModel();
    if (!Constraints.empty()) {
      ModelOut->Ints = std::move(R.Model);
      ModelOut->Complete = R.HasModel;
    }
    ModelOut->Bools = std::move(BoolAssign);
  }
  return SolveResult::Sat;
}

} // namespace mix::smt::detail

#endif // MIX_SOLVER_SMTINTERNALS_H
