//===--- CSymValue.cpp - Symbolic values and stores for mini-C -------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "csym/CSymValue.h"

#include <algorithm>

using namespace mix::c;
using mix::smt::Term;
using mix::smt::TermArena;

// === FieldPaths ==============================================================

FieldPaths::FieldPaths() { Paths.push_back({"", {}, WholeObject}); }

FieldId FieldPaths::child(FieldId Parent, std::string_view Name) {
  auto It = Index.find({Parent, Name});
  if (It != Index.end())
    return It->second;
  FieldId Id = (FieldId)Paths.size();
  Path &P = Paths.emplace_back();
  P.Dotted = Parent == WholeObject
                 ? std::string(Name)
                 : Paths[Parent].Dotted + "." + std::string(Name);
  P.Name = std::string_view(P.Dotted).substr(P.Dotted.size() - Name.size());
  P.Parent = Parent;
  Index.emplace(Key{Parent, P.Name}, Id);
  return Id;
}

// === PtrCaseArena ============================================================

PtrCase *PtrCaseArena::allocate(size_t N) {
  if (N > size_t(End - Cur)) {
    size_t Size = std::max(N, NextBlockCases);
    NextBlockCases = std::min(NextBlockCases * 2, MaxBlockCases);
    Blocks.push_back(std::make_unique<PtrCase[]>(Size));
    Cur = Blocks.back().get();
    End = Cur + Size;
  }
  PtrCase *Out = Cur;
  Cur += N;
  return Out;
}

std::span<const PtrCase> PtrCaseArena::copy(std::span<const PtrCase> Cases) {
  PtrCase *Out = allocate(Cases.size());
  std::copy(Cases.begin(), Cases.end(), Out);
  return {Out, Cases.size()};
}

// === CSymValue ===============================================================

const Term *CSymValue::nullGuard(TermArena &A) const {
  assert(isPtr() && "nullGuard() on scalar value");
  const Term *G = A.falseTerm();
  for (const PtrCase &C : cases())
    if (C.Target.K == PtrTarget::Kind::Null)
      G = A.orTerm(G, C.Guard);
  return G;
}

const Term *CSymValue::nonNullGuard(TermArena &A) const {
  assert(isPtr() && "nonNullGuard() on scalar value");
  const Term *G = A.falseTerm();
  for (const PtrCase &C : cases())
    if (C.Target.K != PtrTarget::Kind::Null)
      G = A.orTerm(G, C.Guard);
  return G;
}

CSymValue CSymValue::ite(TermArena &A, PtrCaseArena &P, const Term *Cond,
                         const CSymValue &Then, const CSymValue &Else) {
  if (Cond->kind() == smt::TermKind::BoolConst)
    return Cond->value() ? Then : Else;
  if (Then.isScalar() && Else.isScalar())
    return scalar(A.iteInt(Cond, Then.scalarTerm(), Else.scalarTerm()));

  assert(Then.isPtr() && Else.isPtr() && "ite over mismatched value kinds");
  // At most every case of both sides; the unused tail goes back.
  size_t Room = Then.NumCases + Else.NumCases;
  PtrCase *Merged = P.allocate(Room);
  size_t N = 0;
  auto Add = [&](const Term *Side, const PtrCase &C) {
    const Term *G = A.andTerm(Side, C.Guard);
    if (G->kind() == smt::TermKind::BoolConst && !G->value())
      return;
    // Coalesce with an existing identical target.
    for (size_t I = 0; I != N; ++I)
      if (Merged[I].Target == C.Target) {
        Merged[I].Guard = A.orTerm(Merged[I].Guard, G);
        return;
      }
    Merged[N++] = {G, C.Target};
  };
  for (const PtrCase &C : Then.cases())
    Add(Cond, C);
  if (Else.NumCases != 0) {
    const Term *NotCond = A.notTerm(Cond);
    for (const PtrCase &C : Else.cases())
      Add(NotCond, C);
  }
  P.giveBack(Room - N);
  return pointer({Merged, N});
}

std::string CSymValue::str(const FieldPaths &Fields) const {
  if (isScalar())
    return Term_ ? Term_->str() : "<uninit>";
  std::string Out = "ptr{";
  for (size_t I = 0; I != NumCases; ++I) {
    if (I != 0)
      Out += ", ";
    Out += Cases[I].Guard->str() + " -> ";
    switch (Cases[I].Target.K) {
    case PtrTarget::Kind::Null:
      Out += "null";
      break;
    case PtrTarget::Kind::Object:
      Out += "obj" + std::to_string(Cases[I].Target.Loc);
      if (Cases[I].Target.Field != WholeObject)
        Out += "." + Fields.spelling(Cases[I].Target.Field);
      break;
    case PtrTarget::Kind::Function:
      Out += "&" + Cases[I].Target.Fn->name();
      break;
    case PtrTarget::Kind::UnknownFn:
      Out += "<unknown-fn>";
      break;
    }
  }
  Out += "}";
  return Out;
}

// === CStore ==================================================================

const CSymValue *CStore::get(CellKey Key) const {
  uint64_t K = Key.packed();
  auto It = std::lower_bound(
      Cells.begin(), Cells.end(), K,
      [](const Cell &C, uint64_t K) { return C.Key < K; });
  return It != Cells.end() && It->Key == K ? &It->Value : nullptr;
}

void CStore::set(CellKey Key, CSymValue V) {
  uint64_t K = Key.packed();
  auto It = std::lower_bound(
      Cells.begin(), Cells.end(), K,
      [](const Cell &C, uint64_t K) { return C.Key < K; });
  if (It != Cells.end() && It->Key == K)
    It->Value = V;
  else
    Cells.insert(It, {K, V});
}
