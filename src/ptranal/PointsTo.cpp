//===--- PointsTo.cpp - Steensgaard may-points-to analysis -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "ptranal/PointsTo.h"

#include <algorithm>

using namespace mix::c;

PointsToAnalysis::PointsToAnalysis(const CProgram &Program, CAstContext &Ctx,
                                   DiagnosticEngine &Diags)
    : Program(Program), Sema(Program, Ctx, Diags),
      // Slot 0 is NoCell.
      Parents(1, NoCell), Targets(1, NoCell),
      GlobalCells(Program.globalSlots().size(), NoCell),
      LocalCells(Program.numLocalSlots(), NoCell),
      FuncCells(Program.funcs().size(), NoCell),
      RetCells(Program.funcs().size(), NoCell) {}

PointsToAnalysis::CellId PointsToAnalysis::freshCell() {
  CellId Id = (CellId)Parents.size();
  Parents.push_back(Id);
  Targets.push_back(NoCell);
  return Id;
}

PointsToAnalysis::CellId PointsToAnalysis::find(CellId Cell) {
  if (Cell == NoCell)
    return NoCell;
  while (Parents[Cell] != Cell) {
    Parents[Cell] = Parents[Parents[Cell]];
    Cell = Parents[Cell];
  }
  return Cell;
}

void PointsToAnalysis::unify(CellId A, CellId B) {
  A = find(A);
  B = find(B);
  if (A == B || A == NoCell || B == NoCell)
    return;
  // Union by making A the representative; then merge targets, which may
  // cascade (the hallmark of Steensgaard's algorithm).
  Parents[B] = A;
  ++Unions;
  CellId TA = find(Targets[A]);
  CellId TB = find(Targets[B]);
  if (TA == NoCell)
    Targets[A] = TB;
  else if (TB != NoCell)
    unify(TA, TB);
}

PointsToAnalysis::CellId PointsToAnalysis::pointsTo(CellId Cell) {
  Cell = find(Cell);
  if (Cell == NoCell)
    return NoCell;
  return find(Targets[Cell]);
}

PointsToAnalysis::CellId PointsToAnalysis::targetOf(CellId Cell) {
  Cell = find(Cell);
  assert(Cell != NoCell && "targetOf(NoCell)");
  if (find(Targets[Cell]) == NoCell)
    Targets[Cell] = freshCell();
  return find(Targets[Cell]);
}

void PointsToAnalysis::unifyValues(CellId A, CellId B) {
  // Steensgaard assignment rule x = y: the *targets* of the two value
  // cells merge; the cells themselves stay distinct storage.
  if (A == NoCell || B == NoCell)
    return;
  unify(targetOf(A), targetOf(B));
}

PointsToAnalysis::CellId PointsToAnalysis::globalCell(unsigned Slot) {
  CellId &Cell = GlobalCells[Slot];
  if (Cell == NoCell)
    Cell = freshCell();
  return find(Cell);
}

PointsToAnalysis::CellId PointsToAnalysis::localCell(const CFuncDecl *Func,
                                                     unsigned Slot) {
  CellId &Cell = LocalCells[Func->firstSlot() + Slot];
  if (Cell == NoCell)
    Cell = freshCell();
  return find(Cell);
}

PointsToAnalysis::CellId PointsToAnalysis::signatureOf(const CFuncDecl *F) {
  CellId &Ret = RetCells[F->index()];
  if (Ret == NoCell) {
    for (const auto &P : F->params())
      localCell(F, P.Slot);
    Ret = freshCell();
  }
  return Ret;
}

void PointsToAnalysis::bindArgs(const CFuncDecl *F,
                                const std::vector<CellId> &ArgCells) {
  signatureOf(F);
  for (size_t I = 0; I != ArgCells.size() && I != F->params().size(); ++I)
    unifyValues(localCell(F, F->params()[I].Slot), ArgCells[I]);
}

void PointsToAnalysis::run() {
  // Two passes: unification is idempotent, and the second pass lets
  // indirect-call constraints see address-taken functions discovered
  // later in program order.
  for (int Pass = 0; Pass != 2; ++Pass) {
    for (const CGlobalDecl *G : Program.globals()) {
      if (!G->init())
        continue;
      CellId V = eval(G->init(), nullptr);
      if (V != NoCell)
        unifyValues(globalCell(G->slot()), V);
    }
    for (const CFuncDecl *F : Program.funcs())
      if (F->isDefined())
        analyzeFunction(F);
  }
  indexClasses();
}

void PointsToAnalysis::analyzeFunction(const CFuncDecl *F) {
  signatureOf(F);
  analyzeStmt(F->body(), F);
}

void PointsToAnalysis::analyzeStmt(const CStmt *S, const CFuncDecl *Func) {
  switch (S->kind()) {
  case CStmtKind::Expr:
    eval(cast<CExprStmt>(S)->expr(), Func);
    return;
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    CellId Var = localCell(Func, D->slot());
    if (D->init()) {
      CellId V = eval(D->init(), Func);
      unifyValues(Var, V);
    }
    return;
  }
  case CStmtKind::If: {
    const auto *I = cast<CIfStmt>(S);
    eval(I->cond(), Func);
    analyzeStmt(I->thenStmt(), Func);
    if (I->elseStmt())
      analyzeStmt(I->elseStmt(), Func);
    return;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    eval(W->cond(), Func);
    analyzeStmt(W->body(), Func);
    return;
  }
  case CStmtKind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (R->value()) {
      CellId V = eval(R->value(), Func);
      unifyValues(signatureOf(Func), V);
    }
    return;
  }
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      analyzeStmt(Sub, Func);
    return;
  }
}

PointsToAnalysis::CellId
PointsToAnalysis::cellOfLValue(const CExpr *E, const CFuncDecl *Func) {
  switch (E->kind()) {
  case CExprKind::Ident: {
    // As storage, a function's name is a global-level name like any other.
    const auto *Id = cast<CIdent>(E);
    switch (Id->nameKind()) {
    case CNameKind::Local:
      return localCell(Func, Id->localSlot());
    case CNameKind::Global:
      return globalCell(Id->global()->slot());
    case CNameKind::Function:
      return globalCell(Id->func()->nameSlot());
    case CNameKind::Unresolved:
      return globalCell(Id->unresolvedSlot());
    }
    return NoCell;
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    if (U->op() == CUnaryOp::Deref)
      return targetOf(eval(U->sub(), Func));
    return NoCell;
  }
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    // Field-insensitive: a member shares its aggregate's cell; an arrow
    // dereferences the base pointer first.
    if (M->isArrow())
      return targetOf(eval(M->base(), Func));
    return cellOfLValue(M->base(), Func);
  }
  default:
    return NoCell;
  }
}

PointsToAnalysis::CellId PointsToAnalysis::handleCall(const CCall *Call,
                                                      const CFuncDecl *Func) {
  // malloc: one heap cell per syntactic site.
  if (CSema::callsBuiltinMalloc(Call)) {
    auto It = MallocCells.find(Call);
    if (It == MallocCells.end()) {
      CellId Heap = freshCell();
      CellId Value = freshCell();
      unify(targetOf(Value), Heap);
      It = MallocCells.emplace(Call, Value).first;
    }
    for (const CExpr *Arg : Call->args())
      eval(Arg, Func);
    return It->second;
  }

  std::vector<CellId> ArgCells;
  for (const CExpr *Arg : Call->args())
    ArgCells.push_back(eval(Arg, Func));

  if (const CFuncDecl *F = Sema.directCallee(Call)) {
    bindArgs(F, ArgCells);
    return find(signatureOf(F));
  }

  // Indirect call: bind arguments to the parameters of every function
  // whose cell the callee expression may denote, and merge every such
  // function's result into the call's value. Depending on syntax the
  // callee evaluates either to the function cell itself ((*fp)(...)) or
  // to a pointer holding it (fp(...)), so match at both levels.
  CellId CalleeValue = eval(Call->callee(), Func);
  if (CalleeValue == NoCell)
    return NoCell;
  CellId Direct = find(CalleeValue);
  CellId Indirect = pointsTo(CalleeValue);
  CellId Ret = NoCell;
  for (const CFuncDecl *F : Program.funcs()) {
    CellId FnCell = find(FuncCells[F->index()]);
    if (FnCell == NoCell || (FnCell != Direct && FnCell != Indirect))
      continue;
    bindArgs(F, ArgCells);
    if (Ret == NoCell)
      Ret = find(signatureOf(F));
    else
      unifyValues(Ret, signatureOf(F));
  }
  return Ret;
}

PointsToAnalysis::CellId PointsToAnalysis::eval(const CExpr *E,
                                                const CFuncDecl *Func) {
  switch (E->kind()) {
  case CExprKind::IntLit:
  case CExprKind::SizeOf:
  case CExprKind::NullLit:
    return NoCell; // no pointer content
  case CExprKind::StrLit: {
    if (StringCell == NoCell) {
      StringCell = freshCell();
      unify(targetOf(StringCell), freshCell());
    }
    return StringCell;
  }
  case CExprKind::Ident: {
    const auto *Id = cast<CIdent>(E);
    if (Id->nameKind() != CNameKind::Function)
      return cellOfLValue(E, Func);
    // A function name used as a value denotes its address.
    CellId &FnCell = FuncCells[Id->func()->index()];
    if (FnCell == NoCell)
      FnCell = freshCell();
    CellId Value = freshCell();
    unify(targetOf(Value), FnCell);
    return Value;
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    switch (U->op()) {
    case CUnaryOp::Deref:
      return targetOf(eval(U->sub(), Func));
    case CUnaryOp::AddrOf: {
      CellId Storage = cellOfLValue(U->sub(), Func);
      if (Storage == NoCell)
        return NoCell;
      CellId Value = freshCell();
      unify(targetOf(Value), Storage);
      return Value;
    }
    case CUnaryOp::Not:
    case CUnaryOp::Neg:
      eval(U->sub(), Func);
      return NoCell;
    }
    return NoCell;
  }
  case CExprKind::Binary: {
    const auto *B = cast<CBinary>(E);
    CellId L = eval(B->lhs(), Func);
    CellId R = eval(B->rhs(), Func);
    // Pointer arithmetic keeps pointing into the same object.
    if (B->op() == CBinaryOp::Add || B->op() == CBinaryOp::Sub) {
      if (L != NoCell)
        return L;
      return R;
    }
    return NoCell;
  }
  case CExprKind::Assign: {
    const auto *A = cast<CAssign>(E);
    CellId Target = cellOfLValue(A->target(), Func);
    CellId Value = eval(A->value(), Func);
    unifyValues(Target, Value);
    return Target;
  }
  case CExprKind::Call:
    return handleCall(cast<CCall>(E), Func);
  case CExprKind::Member:
    return cellOfLValue(E, Func);
  case CExprKind::Cast:
    return eval(cast<CCast>(E)->sub(), Func);
  }
  return NoCell;
}

void PointsToAnalysis::indexClasses() {
  // The canonical order: global-level names by name, then each function's
  // locals, functions in declaration order and names in byte order.
  const auto &Slots = Program.globalSlots();
  std::vector<CVarRef> Order;
  for (unsigned S = 0; S != GlobalCells.size(); ++S)
    if (GlobalCells[S] != NoCell)
      Order.push_back({nullptr, S});
  std::sort(Order.begin(), Order.end(), [&](CVarRef A, CVarRef B) {
    return *Slots[A.Slot].Name < *Slots[B.Slot].Name;
  });
  for (const CFuncDecl *F : Program.funcs()) {
    size_t Begin = Order.size();
    for (unsigned S = 0; S != F->numSlots(); ++S)
      if (LocalCells[F->firstSlot() + S] != NoCell)
        Order.push_back({F, S});
    std::sort(Order.begin() + (long)Begin, Order.end(),
              [&](CVarRef A, CVarRef B) {
                return F->slotName(A.Slot) < F->slotName(B.Slot);
              });
  }

  // Bucket by representative; a stable pass keeps each class in order.
  std::vector<CellId> Reps;
  Reps.reserve(Order.size());
  ClassStart.assign(Parents.size() + 1, 0);
  for (CVarRef V : Order) {
    CellId Cell = V.Func ? LocalCells[V.Func->firstSlot() + V.Slot]
                         : GlobalCells[V.Slot];
    Reps.push_back(find(Cell));
    ++ClassStart[Reps.back() + 1];
  }
  for (size_t C = 1; C != ClassStart.size(); ++C)
    ClassStart[C] += ClassStart[C - 1];
  ClassMembers.resize(Order.size());
  std::vector<unsigned> Next(ClassStart.begin(), ClassStart.end() - 1);
  for (size_t I = 0; I != Order.size(); ++I)
    ClassMembers[Next[Reps[I]]++] = Order[I];
}

std::span<const CVarRef> PointsToAnalysis::variablesInClass(CellId Cell) {
  Cell = find(Cell);
  if (Cell == NoCell || Cell + 1 >= ClassStart.size())
    return {};
  return {ClassMembers.data() + ClassStart[Cell],
          ClassMembers.data() + ClassStart[Cell + 1]};
}

std::string PointsToAnalysis::describe(CellId Cell) {
  Cell = find(Cell);
  if (Cell == NoCell)
    return "{}";
  std::string Out = "{";
  for (CVarRef V : variablesInClass(Cell)) {
    if (Out.size() != 1)
      Out += ", ";
    Out += V.Func ? V.Func->name() + "::" + V.Func->slotName(V.Slot)
                  : "global::" + *Program.globalSlots()[V.Slot].Name;
  }
  if (Out.size() == 1)
    Out += "<cell " + std::to_string(Cell) + ">";
  Out += "}";
  return Out;
}
