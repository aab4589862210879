//===--- CBind.cpp - Resolve every name once --------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "cfront/CBind.h"

using namespace mix::c;

namespace {
/// The parse built every node mutable and hands the program out as const
/// only after binding, so the binder may complete the nodes it reaches
/// through the const tree.
template <typename T> T &mut(const T *Node) { return const_cast<T &>(*Node); }
} // namespace

void CBinder::bind(CProgram &Program) { CBinder(Program).run(); }

CBinder::NameInfo &CBinder::info(const std::string &Name) {
  return Names[std::string_view(Name)];
}

unsigned CBinder::newGlobalSlot(const std::string &Name,
                                const CGlobalDecl *G) {
  Program.GlobalSlots.push_back({&Name, G});
  return (unsigned)Program.GlobalSlots.size() - 1;
}

unsigned CBinder::localSlot(NameInfo &Info, const std::string &Name,
                            const CDeclStmt *Decl) {
  if (Info.LocalSlot == NoSlot) {
    Info.LocalSlot = (unsigned)Slotted.size();
    Slotted.push_back({&Info, {&Name, Decl}});
  }
  return Info.LocalSlot;
}

void CBinder::run() {
  Names.reserve(Program.Globals.size() + Program.Funcs.size());
  for (const CGlobalDecl *G : Program.Globals) {
    NameInfo &Info = info(G->name());
    if (!Info.Global) {
      Info.Global = G;
      Info.GlobalSlot = newGlobalSlot(G->name(), G);
    }
    mut(G).Slot = Info.GlobalSlot;
  }
  for (size_t I = 0; I != Program.Funcs.size(); ++I) {
    CFuncDecl &F = mut(Program.Funcs[I]);
    F.Index = (unsigned)I;
    NameInfo &Info = info(F.name());
    if (!Info.Func)
      Info.Func = Program.findFunc(F.name());
    if (Info.GlobalSlot == NoSlot)
      Info.GlobalSlot = newGlobalSlot(F.name(), nullptr);
    F.NameSlot = Info.GlobalSlot;
  }
  // Initializers see no locals; bind them before any function opens one.
  for (const CGlobalDecl *G : Program.Globals)
    if (G->init())
      bindExpr(G->init());
  for (const CFuncDecl *F : Program.Funcs)
    bindFunction(mut(F));
}

void CBinder::bindFunction(CFuncDecl &F) {
  F.FirstSlot = Program.NumLocalSlots;
  for (CFuncDecl::Param &P : F.Params) {
    NameInfo &Info = info(P.Name);
    P.Slot = localSlot(Info, P.Name, nullptr);
    Info.LocalTy = P.Ty;
  }
  if (F.Body)
    bindStmt(F.Body);
  F.Slots.reserve(Slotted.size());
  for (auto [Info, Slot] : Slotted) {
    F.Slots.push_back(Slot);
    Info->LocalSlot = NoSlot;
    Info->LocalTy = nullptr;
  }
  Program.NumLocalSlots += F.numSlots();
  Slotted.clear();
  Undo.clear();
}

void CBinder::bindScoped(const CStmt *S) {
  size_t Mark = Undo.size();
  bindStmt(S);
  while (Undo.size() != Mark) {
    Undo.back().first->LocalTy = Undo.back().second;
    Undo.pop_back();
  }
}

void CBinder::bindStmt(const CStmt *S) {
  switch (S->kind()) {
  case CStmtKind::Expr:
    bindExpr(cast<CExprStmt>(S)->expr());
    return;
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    NameInfo &Info = info(D->name());
    mut(D).Slot = localSlot(Info, D->name(), D);
    Undo.push_back({&Info, Info.LocalTy});
    Info.LocalTy = D->type();
    if (D->init())
      bindExpr(D->init());
    return;
  }
  case CStmtKind::If: {
    const auto *I = cast<CIfStmt>(S);
    bindExpr(I->cond());
    bindScoped(I->thenStmt());
    if (I->elseStmt())
      bindScoped(I->elseStmt());
    return;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    bindExpr(W->cond());
    bindScoped(W->body());
    return;
  }
  case CStmtKind::Return:
    if (const CExpr *V = cast<CReturnStmt>(S)->value())
      bindExpr(V);
    return;
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      bindStmt(Sub);
    return;
  }
}

void CBinder::bindExpr(const CExpr *E) {
  switch (E->kind()) {
  case CExprKind::IntLit:
  case CExprKind::StrLit:
  case CExprKind::NullLit:
  case CExprKind::SizeOf:
    return;
  case CExprKind::Ident:
    bindIdent(mut(cast<CIdent>(E)));
    return;
  case CExprKind::Unary:
    bindExpr(cast<CUnary>(E)->sub());
    return;
  case CExprKind::Binary:
    bindExpr(cast<CBinary>(E)->lhs());
    bindExpr(cast<CBinary>(E)->rhs());
    return;
  case CExprKind::Assign:
    bindExpr(cast<CAssign>(E)->target());
    bindExpr(cast<CAssign>(E)->value());
    return;
  case CExprKind::Call:
    bindExpr(cast<CCall>(E)->callee());
    for (const CExpr *Arg : cast<CCall>(E)->args())
      bindExpr(Arg);
    return;
  case CExprKind::Member:
    bindExpr(cast<CMember>(E)->base());
    return;
  case CExprKind::Cast:
    bindExpr(cast<CCast>(E)->sub());
    return;
  }
}

void CBinder::bindIdent(CIdent &Id) {
  NameInfo &Info = info(Id.name());
  Id.NamesFunc = Info.Func != nullptr;
  if (Info.LocalTy) {
    Id.BindKind = (unsigned)CNameKind::Local;
    Id.Index = Info.LocalSlot;
    Id.Decl = Info.LocalTy;
  } else if (Info.Global) {
    Id.BindKind = (unsigned)CNameKind::Global;
    Id.Decl = Info.Global;
  } else if (Info.Func) {
    Id.BindKind = (unsigned)CNameKind::Function;
    Id.Decl = Info.Func;
  } else {
    if (Info.GlobalSlot == NoSlot)
      Info.GlobalSlot = newGlobalSlot(Id.name(), nullptr);
    Id.BindKind = (unsigned)CNameKind::Unresolved;
    Id.Index = Info.GlobalSlot;
  }
}
