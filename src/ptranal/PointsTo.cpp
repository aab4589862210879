//===--- PointsTo.cpp - Steensgaard may-points-to analysis -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "ptranal/PointsTo.h"

using namespace mix::c;

PointsToAnalysis::CellId PointsToAnalysis::freshCell() {
  if (Parents.empty()) {
    // Slot 0 is NoCell.
    Parents.push_back(0);
    Targets.push_back(NoCell);
  }
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

PointsToAnalysis::CellId
PointsToAnalysis::cellOfVar(const CFuncDecl *Func, const std::string &Name) {
  auto Key = std::make_pair(Func, Name);
  auto It = VarCells.find(Key);
  if (It != VarCells.end())
    return find(It->second);
  CellId Id = freshCell();
  VarCells[Key] = Id;
  return Id;
}

PointsToAnalysis::FuncSig &PointsToAnalysis::signatureOf(const CFuncDecl *F) {
  auto It = FuncSigs.find(F);
  if (It != FuncSigs.end())
    return It->second;
  FuncSig Sig;
  for (const auto &P : F->params())
    Sig.Params.push_back(cellOfVar(F, P.Name));
  Sig.Ret = freshCell();
  return FuncSigs.emplace(F, std::move(Sig)).first->second;
}

void PointsToAnalysis::run() {
  // Two passes: unification is idempotent, and the second pass lets
  // indirect-call constraints see address-taken functions discovered
  // later in program order.
  for (int Pass = 0; Pass != 2; ++Pass) {
    for (const CGlobalDecl *G : Program.globals()) {
      if (!G->init())
        continue;
      CScope Empty;
      CellId V = eval(G->init(), Empty);
      if (V != NoCell)
        unifyValues(cellOfVar(nullptr, G->name()), V);
    }
    for (const CFuncDecl *F : Program.funcs())
      if (F->isDefined())
        analyzeFunction(F);
  }
}

void PointsToAnalysis::analyzeFunction(const CFuncDecl *F) {
  signatureOf(F);
  CScope Scope = CScope::forFunction(F);
  analyzeStmt(F->body(), Scope);
}

void PointsToAnalysis::analyzeStmt(const CStmt *S, CScope &Scope) {
  switch (S->kind()) {
  case CStmtKind::Expr:
    eval(cast<CExprStmt>(S)->expr(), Scope);
    return;
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    Scope.Locals[D->name()] = D->type();
    CellId Var = cellOfVar(Scope.Func, D->name());
    if (D->init()) {
      CellId V = eval(D->init(), Scope);
      unifyValues(Var, V);
    }
    return;
  }
  case CStmtKind::If: {
    const auto *I = cast<CIfStmt>(S);
    eval(I->cond(), Scope);
    CScope ThenScope = Scope;
    analyzeStmt(I->thenStmt(), ThenScope);
    if (I->elseStmt()) {
      CScope ElseScope = Scope;
      analyzeStmt(I->elseStmt(), ElseScope);
    }
    return;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    eval(W->cond(), Scope);
    CScope BodyScope = Scope;
    analyzeStmt(W->body(), BodyScope);
    return;
  }
  case CStmtKind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (R->value()) {
      CellId V = eval(R->value(), Scope);
      unifyValues(signatureOf(Scope.Func).Ret, V);
    }
    return;
  }
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      analyzeStmt(Sub, Scope);
    return;
  }
}

PointsToAnalysis::CellId
PointsToAnalysis::cellOfLValue(const CExpr *E, const CScope &Scope) {
  switch (E->kind()) {
  case CExprKind::Ident:
    return cellOfVar(Scope.Func && Scope.Locals.count(cast<CIdent>(E)->name())
                         ? Scope.Func
                         : nullptr,
                     cast<CIdent>(E)->name());
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    if (U->op() == CUnaryOp::Deref)
      return targetOf(eval(U->sub(), Scope));
    return NoCell;
  }
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    // Field-insensitive: a member shares its aggregate's cell; an arrow
    // dereferences the base pointer first.
    if (M->isArrow())
      return targetOf(eval(M->base(), Scope));
    return cellOfLValue(M->base(), Scope);
  }
  default:
    return NoCell;
  }
}

void PointsToAnalysis::handleCall(const CCall *Call, const CScope &Scope,
                                  CellId &RetOut) {
  // malloc: one heap cell per syntactic site.
  if (const auto *Id = dyn_cast<CIdent>(Call->callee()))
    if (Id->name() == "malloc" && !Program.findFunc("malloc")) {
      auto It = MallocCells.find(Call);
      if (It == MallocCells.end()) {
        CellId Heap = freshCell();
        CellId Value = freshCell();
        unify(targetOf(Value), Heap);
        It = MallocCells.emplace(Call, Value).first;
      }
      for (const CExpr *Arg : Call->args())
        eval(Arg, Scope);
      RetOut = It->second;
      return;
    }

  std::vector<CellId> ArgCells;
  for (const CExpr *Arg : Call->args())
    ArgCells.push_back(eval(Arg, Scope));

  if (const CFuncDecl *F = Sema.directCallee(Call)) {
    FuncSig &Sig = signatureOf(F);
    for (size_t I = 0; I != ArgCells.size() && I != Sig.Params.size(); ++I)
      unifyValues(Sig.Params[I], ArgCells[I]);
    RetOut = find(Sig.Ret);
    return;
  }

  // Indirect call: bind arguments to the parameters of every function
  // whose cell the callee expression may denote. Depending on syntax the
  // callee evaluates either to the function cell itself ((*fp)(...)) or
  // to a pointer holding it (fp(...)), so match at both levels.
  CellId CalleeValue = eval(Call->callee(), Scope);
  if (CalleeValue == NoCell)
    return;
  CellId Direct = find(CalleeValue);
  CellId Indirect = pointsTo(CalleeValue);
  for (auto &[F, Cell] : FuncCells) {
    CellId FnCell = find(Cell);
    if (FnCell != Direct && FnCell != Indirect)
      continue;
    FuncSig &Sig = signatureOf(F);
    for (size_t I = 0; I != ArgCells.size() && I != Sig.Params.size(); ++I)
      unifyValues(Sig.Params[I], ArgCells[I]);
    RetOut = find(Sig.Ret);
  }
}

PointsToAnalysis::CellId PointsToAnalysis::eval(const CExpr *E,
                                                const CScope &Scope) {
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
    // A function name used as a value denotes its address.
    if (!Scope.Locals.count(Id->name()) &&
        !Program.findGlobal(Id->name())) {
      if (const CFuncDecl *F = Program.findFunc(Id->name())) {
        auto It = FuncCells.find(F);
        if (It == FuncCells.end()) {
          CellId FnCell = freshCell();
          It = FuncCells.emplace(F, FnCell).first;
        }
        CellId Value = freshCell();
        unify(targetOf(Value), It->second);
        return Value;
      }
    }
    return cellOfVar(Scope.Locals.count(Id->name()) ? Scope.Func : nullptr,
                     Id->name());
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    switch (U->op()) {
    case CUnaryOp::Deref:
      return targetOf(eval(U->sub(), Scope));
    case CUnaryOp::AddrOf: {
      CellId Storage = cellOfLValue(U->sub(), Scope);
      if (Storage == NoCell)
        return NoCell;
      CellId Value = freshCell();
      unify(targetOf(Value), Storage);
      return Value;
    }
    case CUnaryOp::Not:
    case CUnaryOp::Neg:
      eval(U->sub(), Scope);
      return NoCell;
    }
    return NoCell;
  }
  case CExprKind::Binary: {
    const auto *B = cast<CBinary>(E);
    CellId L = eval(B->lhs(), Scope);
    CellId R = eval(B->rhs(), Scope);
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
    CellId Target = cellOfLValue(A->target(), Scope);
    CellId Value = eval(A->value(), Scope);
    unifyValues(Target, Value);
    return Target;
  }
  case CExprKind::Call: {
    CellId Ret = NoCell;
    handleCall(cast<CCall>(E), Scope, Ret);
    return Ret;
  }
  case CExprKind::Member:
    return cellOfLValue(E, Scope);
  case CExprKind::Cast:
    return eval(cast<CCast>(E)->sub(), Scope);
  }
  return NoCell;
}

PointsToAnalysis::CellId PointsToAnalysis::valueCell(const CExpr *E,
                                                     const CScope &Scope) {
  return find(eval(E, Scope));
}

std::string PointsToAnalysis::describe(CellId Cell) {
  Cell = find(Cell);
  if (Cell == NoCell)
    return "{}";
  std::string Out = "{";
  bool First = true;
  for (const auto &[Key, Id] : VarCells) {
    if (find(Id) != Cell)
      continue;
    if (!First)
      Out += ", ";
    Out += Key.first ? Key.first->name() + "::" + Key.second
                     : "global::" + Key.second;
    First = false;
  }
  if (First)
    Out += "<cell " + std::to_string(Cell) + ">";
  Out += "}";
  return Out;
}

std::vector<std::pair<const CFuncDecl *, std::string>>
PointsToAnalysis::variablesInClass(CellId Cell) {
  Cell = find(Cell);
  std::vector<std::pair<const CFuncDecl *, std::string>> Out;
  for (const auto &[Key, Id] : VarCells)
    if (find(Id) == Cell)
      Out.push_back(Key);
  return Out;
}
