//===--- DnfSolver.cpp - DNF/Fourier-Motzkin solver backend ---------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/DnfSolver.h"

#include "solver/SmtInternals.h"

#include <cassert>

using namespace mix::smt;
using namespace mix::smt::detail;

namespace {

/// Bound on the number of DNF cubes expanded before answering Unknown.
constexpr unsigned MaxCubes = 4096;

bool expandDnf(const Term *T, bool Negated, std::vector<Cube> &Out);

/// Appends the cubes of (X under NegX) /\ (Y under NegY) to \p Out.
bool dnfProduct(const Term *X, bool NegX, const Term *Y, bool NegY,
                std::vector<Cube> &Out) {
  std::vector<Cube> Left, Right;
  if (!expandDnf(X, NegX, Left) || !expandDnf(Y, NegY, Right))
    return false;
  if (Out.size() + Left.size() * Right.size() > MaxCubes)
    return false;
  for (const Cube &L : Left)
    for (const Cube &R : Right) {
      Cube C = L;
      C.insert(C.end(), R.begin(), R.end());
      Out.push_back(std::move(C));
    }
  return true;
}

/// Expands the NNF of \p T (computed on the fly via \p Negated) into DNF
/// cubes, appending to \p Out. Returns false when the expansion exceeds
/// MaxCubes — the resource cap that bounds the worst-case exponential.
bool expandDnf(const Term *T, bool Negated, std::vector<Cube> &Out) {
  switch (T->kind()) {
  case TermKind::BoolConst: {
    bool Value = (T->value() != 0) != Negated;
    if (Value)
      Out.push_back({}); // empty cube = true
    // false contributes no cube
    return Out.size() <= MaxCubes;
  }
  case TermKind::BoolVar:
  case TermKind::EqInt:
  case TermKind::Lt:
  case TermKind::Le:
    Out.push_back({{T, !Negated}});
    return Out.size() <= MaxCubes;
  case TermKind::Not:
    return expandDnf(T->operand(0), !Negated, Out);
  case TermKind::And:
  case TermKind::Or: {
    const Term *A = T->operand(0);
    const Term *B = T->operand(1);
    if ((T->kind() == TermKind::And) != Negated)
      return dnfProduct(A, Negated, B, Negated, Out);
    // Disjunction: concatenate both operands' cubes.
    return expandDnf(A, Negated, Out) &&
           expandDnf(B, Negated, Out) && Out.size() <= MaxCubes;
  }
  case TermKind::Implies: {
    const Term *A = T->operand(0);
    const Term *B = T->operand(1);
    if (!Negated) // a => b  ==  ~a \/ b
      return expandDnf(A, true, Out) &&
             expandDnf(B, false, Out) && Out.size() <= MaxCubes;
    // ~(a => b)  ==  a /\ ~b
    return dnfProduct(A, false, B, true, Out);
  }
  case TermKind::EqBool: {
    // a <=> b  ==  (a /\ b) \/ (~a /\ ~b); negated: (a /\ ~b) \/ (~a /\ b).
    const Term *A = T->operand(0);
    const Term *B = T->operand(1);
    if (!Negated)
      return dnfProduct(A, false, B, false, Out) &&
             dnfProduct(A, true, B, true, Out);
    return dnfProduct(A, false, B, true, Out) &&
           dnfProduct(A, true, B, false, Out);
  }
  case TermKind::IteBool: {
    // ite(c, a, b) == (c /\ a) \/ (~c /\ b); negation pushes into a and b.
    const Term *C = T->operand(0);
    const Term *A = T->operand(1);
    const Term *B = T->operand(2);
    return dnfProduct(C, false, A, Negated, Out) &&
           dnfProduct(C, true, B, Negated, Out);
  }
  default:
    assert(false && "non-boolean term in DNF expansion");
    return false;
  }
}

} // namespace

SolveResult DnfSolver::decide(const Term *Formula, SmtModel *ModelOut) {
  assert(Formula->isBool() && "checkSat() requires a boolean formula");

  // Lower if-then-else integer terms and conjoin their definitions.
  IteLowering Lowering(Arena);
  const Term *F = Lowering.lower(Formula);
  for (const Term *Def : Lowering.definitions())
    F = Arena.andTerm(F, Def);

  if (F->kind() == TermKind::BoolConst) {
    if (ModelOut)
      *ModelOut = SmtModel();
    return F->value() ? SolveResult::Sat : SolveResult::Unsat;
  }

  std::vector<Cube> Cubes;
  if (!expandDnf(F, /*Negated=*/false, Cubes))
    return SolveResult::Unknown; // cube cap exceeded: resource cap

  bool AnyUnknown = false;
  for (const Cube &C : Cubes) {
    SolveResult R = decideCube(C, Opts.Lia, ModelOut);
    if (R == SolveResult::Sat)
      return R;
    if (R == SolveResult::Unknown)
      AnyUnknown = true;
    // Unsat cube: try the next one.
  }

  return AnyUnknown ? SolveResult::Unknown : SolveResult::Unsat;
}
