//===--- SymArena.cpp - Builder/owner of symbolic expressions -------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "sym/SymArena.h"

using namespace mix;

const SymExpr *SymArena::make(SymKind Kind, const Type *Ty, long long Value,
                              std::vector<const SymExpr *> Ops,
                              const MemNode *Mem) {
  ExprKey K{Kind, Ty, Value, Ops, Mem};
  auto It = InternedExprs.find(K);
  if (It != InternedExprs.end())
    return It->second;
  OwnedExprs.push_back(std::unique_ptr<SymExpr>(
      new SymExpr(Kind, Ty, Value, std::move(Ops), Mem)));
  const SymExpr *E = OwnedExprs.back().get();
  InternedExprs.emplace(std::move(K), E);
  return E;
}

const MemNode *SymArena::makeMem(MemKind Kind, unsigned Id,
                                 const MemNode *Prev, const SymExpr *Addr,
                                 const SymExpr *Val, const MemNode *Else) {
  MemKey K{Kind, Id, Prev, Addr, Val, Else};
  auto It = InternedMems.find(K);
  if (It != InternedMems.end())
    return It->second;
  OwnedMems.push_back(
      std::unique_ptr<MemNode>(new MemNode(Kind, Id, Prev, Addr, Val, Else)));
  const MemNode *M = OwnedMems.back().get();
  InternedMems.emplace(std::move(K), M);
  return M;
}

const SymExpr *SymArena::freshVar(const Type *Ty, bool IsAllocAddr,
                                  std::string Name) {
  unsigned Id = (unsigned)VarInfos.size();
  VarInfos.push_back({Ty, IsAllocAddr, std::move(Name)});
  return make(SymKind::Var, Ty, Id, {}, nullptr);
}

bool SymArena::isAllocAddress(const SymExpr *E) const {
  return E->kind() == SymKind::Var && VarInfos[E->varId()].IsAllocAddr;
}

const std::string &SymArena::varName(unsigned VarId) const {
  assert(VarId < VarInfos.size() && "unknown symbolic variable");
  return VarInfos[VarId].Name;
}

const Type *SymArena::varType(unsigned VarId) const {
  assert(VarId < VarInfos.size() && "unknown symbolic variable");
  return VarInfos[VarId].Ty;
}

const SymExpr *SymArena::intConst(long long Value) {
  return make(SymKind::IntConst, Types.intType(), Value, {}, nullptr);
}

const SymExpr *SymArena::boolConst(bool Value) {
  return make(SymKind::BoolConst, Types.boolType(), Value ? 1 : 0, {},
              nullptr);
}

const SymExpr *SymArena::add(const SymExpr *L, const SymExpr *R) {
  assert(L->type()->isInt() && R->type()->isInt() &&
         "symbolic + requires int operands");
  if (L->isConst() && R->isConst())
    return intConst(L->intValue() + R->intValue());
  return make(SymKind::Add, Types.intType(), 0, {L, R}, nullptr);
}

const SymExpr *SymArena::sub(const SymExpr *L, const SymExpr *R) {
  assert(L->type()->isInt() && R->type()->isInt() &&
         "symbolic - requires int operands");
  if (L->isConst() && R->isConst())
    return intConst(L->intValue() - R->intValue());
  return make(SymKind::Sub, Types.intType(), 0, {L, R}, nullptr);
}

const SymExpr *SymArena::eq(const SymExpr *L, const SymExpr *R) {
  assert(L->type() == R->type() &&
         (L->type()->isInt() || L->type()->isBool()) &&
         "symbolic = requires int or bool operands of equal type");
  if (L->isConst() && R->isConst()) {
    bool Same = L->type()->isInt() ? L->intValue() == R->intValue()
                                   : L->boolValue() == R->boolValue();
    return boolConst(Same);
  }
  if (L == R)
    return boolConst(true);
  return make(SymKind::Eq, Types.boolType(), 0, {L, R}, nullptr);
}

const SymExpr *SymArena::lt(const SymExpr *L, const SymExpr *R) {
  assert(L->type()->isInt() && R->type()->isInt() &&
         "symbolic < requires int operands");
  if (L->isConst() && R->isConst())
    return boolConst(L->intValue() < R->intValue());
  if (L == R)
    return boolConst(false);
  return make(SymKind::Lt, Types.boolType(), 0, {L, R}, nullptr);
}

const SymExpr *SymArena::le(const SymExpr *L, const SymExpr *R) {
  assert(L->type()->isInt() && R->type()->isInt() &&
         "symbolic <= requires int operands");
  if (L->isConst() && R->isConst())
    return boolConst(L->intValue() <= R->intValue());
  if (L == R)
    return boolConst(true);
  return make(SymKind::Le, Types.boolType(), 0, {L, R}, nullptr);
}

const SymExpr *SymArena::notG(const SymExpr *G) {
  assert(G->type()->isBool() && "negation requires a guard");
  if (G->isConst())
    return boolConst(!G->boolValue());
  if (G->kind() == SymKind::Not)
    return G->operand(0);
  return make(SymKind::Not, Types.boolType(), 0, {G}, nullptr);
}

const SymExpr *SymArena::andG(const SymExpr *L, const SymExpr *R) {
  assert(L->type()->isBool() && R->type()->isBool() &&
         "conjunction requires guards");
  if (L->isConst())
    return L->boolValue() ? R : boolConst(false);
  if (R->isConst())
    return R->boolValue() ? L : boolConst(false);
  if (L == R)
    return L;
  return make(SymKind::And, Types.boolType(), 0, {L, R}, nullptr);
}

const SymExpr *SymArena::orG(const SymExpr *L, const SymExpr *R) {
  assert(L->type()->isBool() && R->type()->isBool() &&
         "disjunction requires guards");
  if (L->isConst())
    return L->boolValue() ? boolConst(true) : R;
  if (R->isConst())
    return R->boolValue() ? boolConst(true) : L;
  if (L == R)
    return L;
  return make(SymKind::Or, Types.boolType(), 0, {L, R}, nullptr);
}

const SymExpr *SymArena::ite(const SymExpr *G, const SymExpr *Then,
                             const SymExpr *Else) {
  assert(G->type()->isBool() && "ite guard must be boolean");
  assert(Then->type() == Else->type() && "ite branch types must agree");
  if (G->isConst())
    return G->boolValue() ? Then : Else;
  if (Then == Else)
    return Then;
  return make(SymKind::Ite, Then->type(), 0, {G, Then, Else}, nullptr);
}

const SymExpr *SymArena::select(const MemNode *Mem, const SymExpr *Addr) {
  assert(Addr->type()->isRef() && "select address must be ref-typed");
  const Type *ValueTy = Addr->type()->pointee();

  // Reading a conditional memory distributes over the condition:
  // (g ? m1 : m2)[a] == g ? m1[a] : m2[a].
  if (Mem->kind() == MemKind::Ite)
    return ite(Mem->guard(), select(Mem->thenMemory(), Addr),
               select(Mem->elseMemory(), Addr));

  // McCarthy simplification: scan the log from the newest entry. A
  // syntactically identical address is a definite hit. A *different
  // allocation address* definitely does not alias and is skipped. Any
  // other entry may alias, so the read stays deferred.
  const MemNode *Cursor = Mem;
  while (Cursor) {
    if (Cursor->kind() == MemKind::Base || Cursor->kind() == MemKind::Ite)
      break;
    if (Cursor->address() == Addr) {
      // Definite hit; only usable if the stored value has the annotated
      // type (an ill-typed write is surfaced by the m-ok check instead).
      if (Cursor->value()->type() == ValueTy)
        return Cursor->value();
      break;
    }
    bool BothAllocAddrs =
        isAllocAddress(Addr) && isAllocAddress(Cursor->address());
    if (!BothAllocAddrs)
      break; // possible alias: stop simplifying
    Cursor = Cursor->previous();
  }

  return make(SymKind::Select, ValueTy, 0, {Addr}, Mem);
}

const MemNode *SymArena::freshBaseMemory() {
  // The id is fresh by construction, so the node can never already be
  // interned; allocate it directly instead of paying a guaranteed
  // hash-table miss (and growing the table by one dead entry per run).
  OwnedMems.push_back(std::unique_ptr<MemNode>(new MemNode(
      MemKind::Base, NumBaseMemories++, nullptr, nullptr, nullptr, nullptr)));
  return OwnedMems.back().get();
}

const MemNode *SymArena::update(const MemNode *Prev, const SymExpr *Addr,
                                const SymExpr *Value) {
  assert(Addr->type()->isRef() && "update address must be ref-typed");
  return makeMem(MemKind::Update, 0, Prev, Addr, Value, nullptr);
}

const MemNode *SymArena::alloc(const MemNode *Prev, const SymExpr *Addr,
                               const SymExpr *Value) {
  assert(isAllocAddress(Addr) && "alloc address must be a fresh allocation");
  return makeMem(MemKind::Alloc, 0, Prev, Addr, Value, nullptr);
}

const SymExpr *SymArena::closure(const Type *Ty, const FunExpr *Fun,
                                 SymEnv Env) {
  assert(Ty->isFun() && "closures must have function type");
  unsigned Id = (unsigned)Closures.size();
  Closures.emplace_back(Fun, std::move(Env));
  // Not interned: each closure is a distinct value, keyed by its id.
  OwnedExprs.push_back(std::unique_ptr<SymExpr>(
      new SymExpr(SymKind::Closure, Ty, Id, {}, nullptr)));
  return OwnedExprs.back().get();
}

const FunExpr *SymArena::closureFun(const SymExpr *E) const {
  assert(E->kind() == SymKind::Closure && "closureFun() on non-closure");
  return Closures[E->closureId()].first;
}

const SymEnv &SymArena::closureEnv(const SymExpr *E) const {
  assert(E->kind() == SymKind::Closure && "closureEnv() on non-closure");
  return Closures[E->closureId()].second;
}

void SymArena::collectClosures(const SymExpr *Value,
                               std::vector<const SymExpr *> &Out) const {
  if (!Value)
    return;
  if (Value->kind() == SymKind::Closure) {
    Out.push_back(Value);
    for (const auto &[Name, Captured] : closureEnv(Value)) {
      (void)Name;
      collectClosures(Captured, Out);
    }
    return;
  }
  for (unsigned I = 0, E = Value->numOperands(); I != E; ++I)
    collectClosures(Value->operand(I), Out);
}

void SymArena::collectClosuresInMemory(
    const MemNode *Mem, std::vector<const SymExpr *> &Out) const {
  while (Mem) {
    switch (Mem->kind()) {
    case MemKind::Base:
      return;
    case MemKind::Update:
    case MemKind::Alloc:
      collectClosures(Mem->value(), Out);
      Mem = Mem->previous();
      continue;
    case MemKind::Ite:
      collectClosuresInMemory(Mem->thenMemory(), Out);
      collectClosuresInMemory(Mem->elseMemory(), Out);
      return;
    }
  }
}

const MemNode *SymArena::iteMem(const SymExpr *G, const MemNode *Then,
                                const MemNode *Else) {
  assert(G->type()->isBool() && "memory ite guard must be boolean");
  if (G->isConst())
    return G->boolValue() ? Then : Else;
  if (Then == Else)
    return Then;
  return makeMem(MemKind::Ite, 0, Then, G, nullptr, Else);
}
