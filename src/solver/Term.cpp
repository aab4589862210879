//===--- Term.cpp - Solver term language ----------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "solver/Term.h"

#include "support/Hash.h"

#include <algorithm>
#include <functional>
#include <new>
#include <type_traits>
#include <unordered_map>

using namespace mix::smt;

namespace {

/// Maps (variable term -> local index per sort) for normalizedStr().
/// Variables are hash-consed, so pointer identity is variable identity.
struct VarRenumbering {
  std::unordered_map<const Term *, unsigned> Ids;
  unsigned NextInt = 0;
  unsigned NextBool = 0;

  unsigned idOf(const Term *T) {
    auto [It, Inserted] = Ids.try_emplace(T, 0);
    if (Inserted)
      It->second = T->sort() == Sort::Int ? NextInt++ : NextBool++;
    return It->second;
  }
};

std::string strImpl(const Term *T, VarRenumbering *Renumber) {
  switch (T->kind()) {
  case TermKind::IntConst:
    return std::to_string(T->value());
  case TermKind::IntVar:
    return "i" + std::to_string(Renumber ? Renumber->idOf(T) : T->varId());
  case TermKind::BoolVar:
    return "b" + std::to_string(Renumber ? Renumber->idOf(T) : T->varId());
  case TermKind::BoolConst:
    return T->value() ? "true" : "false";
  case TermKind::MulConst:
    return "(* " + std::to_string(T->value()) + " " +
           strImpl(T->operand(0), Renumber) + ")";
  default:
    break;
  }
  const char *Op = "?";
  switch (T->kind()) {
  case TermKind::Add:
    Op = "+";
    break;
  case TermKind::Sub:
    Op = "-";
    break;
  case TermKind::Neg:
    Op = "neg";
    break;
  case TermKind::IteInt:
  case TermKind::IteBool:
    Op = "ite";
    break;
  case TermKind::EqInt:
  case TermKind::EqBool:
    Op = "=";
    break;
  case TermKind::Lt:
    Op = "<";
    break;
  case TermKind::Le:
    Op = "<=";
    break;
  case TermKind::Not:
    Op = "not";
    break;
  case TermKind::And:
    Op = "and";
    break;
  case TermKind::Or:
    Op = "or";
    break;
  case TermKind::Implies:
    Op = "=>";
    break;
  default:
    break;
  }
  std::string Out = std::string("(") + Op;
  for (unsigned I = 0, E = T->numOperands(); I != E; ++I)
    Out += " " + strImpl(T->operand(I), Renumber);
  Out += ")";
  return Out;
}

} // namespace

std::string Term::str() const { return strImpl(this, nullptr); }

std::string mix::smt::normalizedStr(const Term *T) {
  VarRenumbering Renumber;
  return strImpl(T, &Renumber);
}

// The arena never runs a term's destructor.
static_assert(std::is_trivially_destructible_v<Term>);

namespace {

size_t hashOf(TermKind Kind, long long Value, const Term *const *Ops,
              size_t NumOps) {
  size_t H = mix::hashCombine((size_t)Kind, (size_t)Value);
  for (size_t I = 0; I != NumOps; ++I)
    H = mix::hashCombine(H, std::hash<const void *>()(Ops[I]));
  return H;
}

} // namespace

const Term *TermArena::make(TermKind Kind, Sort S, long long Value,
                            std::initializer_list<const Term *> Ops) {
  if (Table.empty())
    Table.assign(FirstTableSize, nullptr);
  size_t Mask = Table.size() - 1;
  size_t Slot = hashOf(Kind, Value, Ops.begin(), Ops.size()) & Mask;
  for (; Table[Slot]; Slot = (Slot + 1) & Mask) {
    const Term *T = Table[Slot];
    if (T->Kind == Kind && T->Value == Value && T->NumOps == Ops.size() &&
        std::equal(Ops.begin(), Ops.end(), T->Ops))
      return T;
  }
  const Term *T = new (allocateTerm()) Term(Kind, S, Value, Ops);
  Table[Slot] = T;
  if (2 * ++NumTerms > Table.size())
    growTable();
  return T;
}

void *TermArena::allocateTerm() {
  if (ChunkUsed == ChunkCapacity) {
    ChunkCapacity = Chunks.empty()
                        ? FirstChunkTerms
                        : std::min(2 * ChunkCapacity, MaxChunkTerms);
    Chunks.emplace_back(new std::byte[ChunkCapacity * sizeof(Term)]);
    ChunkUsed = 0;
  }
  return Chunks.back().get() + ChunkUsed++ * sizeof(Term);
}

void TermArena::growTable() {
  std::vector<const Term *> Old(2 * Table.size(), nullptr);
  Old.swap(Table);
  size_t Mask = Table.size() - 1;
  for (const Term *T : Old) {
    if (!T)
      continue;
    size_t Slot = hashOf(T->Kind, T->Value, T->Ops, T->NumOps) & Mask;
    while (Table[Slot])
      Slot = (Slot + 1) & Mask;
    Table[Slot] = T;
  }
}

const Term *TermArena::freshIntVar(std::string Name) {
  unsigned Id = (unsigned)IntVarNames.size();
  IntVarNames.push_back(std::move(Name));
  return make(TermKind::IntVar, Sort::Int, Id, {});
}

const Term *TermArena::freshBoolVar(std::string Name) {
  unsigned Id = (unsigned)BoolVarNames.size();
  BoolVarNames.push_back(std::move(Name));
  return make(TermKind::BoolVar, Sort::Bool, Id, {});
}

const Term *TermArena::intVar(unsigned VarId) {
  assert(VarId < IntVarNames.size() && "unknown integer variable id");
  return make(TermKind::IntVar, Sort::Int, VarId, {});
}

const Term *TermArena::boolVar(unsigned VarId) {
  assert(VarId < BoolVarNames.size() && "unknown boolean variable id");
  return make(TermKind::BoolVar, Sort::Bool, VarId, {});
}

const std::string &TermArena::varName(Sort S, unsigned VarId) const {
  const auto &Names = S == Sort::Int ? IntVarNames : BoolVarNames;
  assert(VarId < Names.size() && "unknown variable id");
  return Names[VarId];
}

const Term *TermArena::intConst(long long Value) {
  return make(TermKind::IntConst, Sort::Int, Value, {});
}

const Term *TermArena::add(const Term *L, const Term *R) {
  assert(L->isInt() && R->isInt() && "add() requires int operands");
  if (L->kind() == TermKind::IntConst && R->kind() == TermKind::IntConst)
    return intConst(L->value() + R->value());
  if (L->kind() == TermKind::IntConst && L->value() == 0)
    return R;
  if (R->kind() == TermKind::IntConst && R->value() == 0)
    return L;
  return make(TermKind::Add, Sort::Int, 0, {L, R});
}

const Term *TermArena::sub(const Term *L, const Term *R) {
  assert(L->isInt() && R->isInt() && "sub() requires int operands");
  if (L->kind() == TermKind::IntConst && R->kind() == TermKind::IntConst)
    return intConst(L->value() - R->value());
  if (R->kind() == TermKind::IntConst && R->value() == 0)
    return L;
  if (L == R)
    return intConst(0);
  return make(TermKind::Sub, Sort::Int, 0, {L, R});
}

const Term *TermArena::neg(const Term *T) {
  assert(T->isInt() && "neg() requires an int operand");
  if (T->kind() == TermKind::IntConst)
    return intConst(-T->value());
  if (T->kind() == TermKind::Neg)
    return T->operand(0);
  return make(TermKind::Neg, Sort::Int, 0, {T});
}

const Term *TermArena::mulConst(long long K, const Term *T) {
  assert(T->isInt() && "mulConst() requires an int operand");
  if (K == 0)
    return intConst(0);
  if (K == 1)
    return T;
  if (T->kind() == TermKind::IntConst)
    return intConst(K * T->value());
  return make(TermKind::MulConst, Sort::Int, K, {T});
}

const Term *TermArena::iteInt(const Term *Cond, const Term *Then,
                              const Term *Else) {
  assert(Cond->isBool() && Then->isInt() && Else->isInt() &&
         "iteInt() sort mismatch");
  if (Cond->kind() == TermKind::BoolConst)
    return Cond->value() ? Then : Else;
  if (Then == Else)
    return Then;
  return make(TermKind::IteInt, Sort::Int, 0, {Cond, Then, Else});
}

const Term *TermArena::boolConst(bool Value) {
  return make(TermKind::BoolConst, Sort::Bool, Value ? 1 : 0, {});
}

const Term *TermArena::eqInt(const Term *L, const Term *R) {
  assert(L->isInt() && R->isInt() && "eqInt() requires int operands");
  if (L == R)
    return trueTerm();
  if (L->kind() == TermKind::IntConst && R->kind() == TermKind::IntConst)
    return boolConst(L->value() == R->value());
  return make(TermKind::EqInt, Sort::Bool, 0, {L, R});
}

const Term *TermArena::lt(const Term *L, const Term *R) {
  assert(L->isInt() && R->isInt() && "lt() requires int operands");
  if (L == R)
    return falseTerm();
  if (L->kind() == TermKind::IntConst && R->kind() == TermKind::IntConst)
    return boolConst(L->value() < R->value());
  return make(TermKind::Lt, Sort::Bool, 0, {L, R});
}

const Term *TermArena::le(const Term *L, const Term *R) {
  assert(L->isInt() && R->isInt() && "le() requires int operands");
  if (L == R)
    return trueTerm();
  if (L->kind() == TermKind::IntConst && R->kind() == TermKind::IntConst)
    return boolConst(L->value() <= R->value());
  return make(TermKind::Le, Sort::Bool, 0, {L, R});
}

const Term *TermArena::eqBool(const Term *L, const Term *R) {
  assert(L->isBool() && R->isBool() && "eqBool() requires bool operands");
  if (L == R)
    return trueTerm();
  if (L->kind() == TermKind::BoolConst)
    return L->value() ? R : notTerm(R);
  if (R->kind() == TermKind::BoolConst)
    return R->value() ? L : notTerm(L);
  return make(TermKind::EqBool, Sort::Bool, 0, {L, R});
}

const Term *TermArena::notTerm(const Term *T) {
  assert(T->isBool() && "notTerm() requires a bool operand");
  if (T->kind() == TermKind::BoolConst)
    return boolConst(!T->value());
  if (T->kind() == TermKind::Not)
    return T->operand(0);
  return make(TermKind::Not, Sort::Bool, 0, {T});
}

const Term *TermArena::andTerm(const Term *L, const Term *R) {
  assert(L->isBool() && R->isBool() && "andTerm() requires bool operands");
  if (L->kind() == TermKind::BoolConst)
    return L->value() ? R : falseTerm();
  if (R->kind() == TermKind::BoolConst)
    return R->value() ? L : falseTerm();
  if (L == R)
    return L;
  return make(TermKind::And, Sort::Bool, 0, {L, R});
}

const Term *TermArena::orTerm(const Term *L, const Term *R) {
  assert(L->isBool() && R->isBool() && "orTerm() requires bool operands");
  if (L->kind() == TermKind::BoolConst)
    return L->value() ? trueTerm() : R;
  if (R->kind() == TermKind::BoolConst)
    return R->value() ? trueTerm() : L;
  if (L == R)
    return L;
  return make(TermKind::Or, Sort::Bool, 0, {L, R});
}

const Term *TermArena::implies(const Term *L, const Term *R) {
  return orTerm(notTerm(L), R);
}

const Term *TermArena::iteBool(const Term *Cond, const Term *Then,
                               const Term *Else) {
  assert(Cond->isBool() && Then->isBool() && Else->isBool() &&
         "iteBool() sort mismatch");
  if (Cond->kind() == TermKind::BoolConst)
    return Cond->value() ? Then : Else;
  if (Then == Else)
    return Then;
  return make(TermKind::IteBool, Sort::Bool, 0, {Cond, Then, Else});
}

const Term *TermArena::ite(const Term *Cond, const Term *Then,
                           const Term *Else) {
  assert(Then->sort() == Else->sort() && "ite() branch sorts differ");
  if (Then->isInt())
    return iteInt(Cond, Then, Else);
  return iteBool(Cond, Then, Else);
}

const Term *TermArena::andList(const std::vector<const Term *> &Ts) {
  const Term *Acc = trueTerm();
  for (const Term *T : Ts)
    Acc = andTerm(Acc, T);
  return Acc;
}

const Term *TermArena::orList(const std::vector<const Term *> &Ts) {
  const Term *Acc = falseTerm();
  for (const Term *T : Ts)
    Acc = orTerm(Acc, T);
  return Acc;
}
