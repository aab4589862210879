//===--- QualInference.cpp - null/nonnull qualifier inference --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "qual/QualInference.h"

using namespace mix::c;

QualInference::QualInference(const CProgram &Program, CAstContext &Ctx,
                             DiagnosticEngine &Diags, QualOptions Opts)
    : Program(Program), Sema(Program, Ctx, Diags), Diags(Diags), Opts(Opts),
      GlobalVars(Program.globalSlots().size()),
      LocalVars(Program.numLocalSlots()), FuncInfo(Program.funcs().size()) {}

unsigned QualInference::qualDepth(const CType *Ty) {
  unsigned Depth = 0;
  while (Ty->isPointer()) {
    ++Depth;
    Ty = Ty->pointee();
  }
  return Depth;
}

QualVec QualInference::makeQualsForType(const CType *Ty,
                                        const std::string &Description,
                                        SourceLoc Loc) {
  QualVec Out;
  unsigned Level = 0;
  while (Ty->isPointer()) {
    std::string Name = Description;
    if (Level != 0)
      Name += " @" + std::to_string(Level);
    QualGraph::Node N = Graph.newNode(Name, Loc);
    switch (Ty->qualifier()) {
    case QualAnnot::None:
      break;
    case QualAnnot::Null:
      Graph.markNullSource(N);
      break;
    case QualAnnot::Nonnull:
      Graph.markNonnullBound(N);
      break;
    }
    Out.push_back(N);
    Ty = Ty->pointee();
    ++Level;
  }
  return Out;
}

void QualInference::flowInto(const QualVec &From, const QualVec &To) {
  // The paper's CilQual generates equality constraints ("null = beta,
  // beta = gamma, gamma = delta, ..."), i.e. unification-style monomorphic
  // inference. We therefore add flows in both directions at every level;
  // this is exactly what produces the context-insensitive conflation of
  // Section 4.5, Case 2.
  size_t Levels = std::max(From.size(), To.size());
  for (size_t I = 0; I != Levels; ++I) {
    // Pad missing levels with fresh unconstrained variables so partial
    // information still propagates.
    QualGraph::Node F = I < From.size()
                            ? From[I]
                            : Graph.newNode("<fresh>", SourceLoc());
    QualGraph::Node T =
        I < To.size() ? To[I] : Graph.newNode("<fresh>", SourceLoc());
    Graph.addFlow(F, T);
    Graph.addFlow(T, F);
  }
}

const QualVec &QualInference::qualsOfVar(CVarRef Var) {
  Memo &Entry = Var.Func ? LocalVars[Var.Func->firstSlot() + Var.Slot]
                         : GlobalVars[Var.Slot];
  if (Entry.Made)
    return Entry.Quals;
  Entry.Made = true;

  const CType *Ty = nullptr;
  SourceLoc Loc;
  std::string Description;
  if (Var.Func) {
    // Parameters and locals are registered eagerly by analyzeFunction;
    // reaching here means alias restoration asked about a function that
    // inference has not analyzed. Make what that analysis would: a
    // local's variables from its slot's first declaration, as
    // analyzeStmt does (its declaration then finds them made), and a
    // parameter's from its declared type (analyzeFunction then unifies
    // them with the parameter's own).
    if (const CDeclStmt *D = Var.Func->slotDecl(Var.Slot)) {
      Ty = D->type();
      Loc = D->loc();
    } else {
      for (const auto &P : Var.Func->params())
        if (P.Slot == Var.Slot) {
          Ty = P.Ty;
          Loc = Var.Func->loc();
        }
    }
    Description = Var.Func->name() + "::" + Var.Func->slotName(Var.Slot);
  } else if (const CGlobalDecl *G = Program.globalSlots()[Var.Slot].Global) {
    Ty = G->type();
    Loc = G->loc();
    Description = G->name();
  }
  if (Ty)
    Entry.Quals = makeQualsForType(Ty, Description, Loc);
  return Entry.Quals;
}

const QualVec &QualInference::qualsOfField(const CStructDecl *Struct,
                                           const std::string &Field) {
  auto Key = std::make_pair(Struct, Field);
  auto It = FieldQuals.find(Key);
  if (It != FieldQuals.end())
    return It->second;
  const CStructDecl::Field *F = Struct->findField(Field);
  QualVec Quals =
      F ? makeQualsForType(F->Ty, "struct " + Struct->name() + "." + Field,
                           Struct->loc())
        : QualVec();
  return FieldQuals.emplace(Key, std::move(Quals)).first->second;
}

const QualVec &QualInference::qualsOfReturn(const CFuncDecl *F) {
  Memo &Entry = FuncInfo[F->index()].Return;
  if (!Entry.Made) {
    Entry.Made = true;
    Entry.Quals = makeQualsForType(F->returnType(), "return of " + F->name(),
                                   F->loc());
  }
  return Entry.Quals;
}

const QualVec &QualInference::qualsOfParam(const CFuncDecl *F,
                                           unsigned Index) {
  assert(Index < F->params().size() && "parameter index out of range");
  std::vector<Memo> &Params = FuncInfo[F->index()].Params;
  if (Params.empty())
    Params.resize(F->params().size());
  Memo &Entry = Params[Index];
  if (Entry.Made)
    return Entry.Quals;
  Entry.Made = true;
  const auto &P = F->params()[Index];
  Entry.Quals = makeQualsForType(
      P.Ty, "param " + P.Name + " of " + F->name(), F->loc());
  // Parameters are storage too: unify with the variable slot so body
  // references see the same qualifiers.
  Memo &Var = LocalVars[F->firstSlot() + P.Slot];
  if (!Var.Made) {
    Var.Made = true;
    Var.Quals = Entry.Quals;
  } else {
    for (size_t I = 0; I < Entry.Quals.size() && I < Var.Quals.size(); ++I) {
      Graph.addFlow(Entry.Quals[I], Var.Quals[I]);
      Graph.addFlow(Var.Quals[I], Entry.Quals[I]);
    }
  }
  return Entry.Quals;
}

void QualInference::seedNull(QualGraph::Node N, const std::string &Reason,
                             SourceLoc Loc, prov::FlowEdgeKind Kind) {
  QualGraph::Node Source = Graph.newNode(Reason, Loc);
  Graph.markNullSource(Source);
  Graph.addFlow(Source, N, {Kind, Loc});
}

void QualInference::unifyAliasClass(std::span<const CVarRef> Vars,
                                    SourceLoc Loc) {
  // "We add constraints to require that all may-aliased expressions have
  // the same type" (Section 4.2): bidirectional flows pairwise through
  // the first member.
  const QualVec *First = nullptr;
  for (CVarRef Var : Vars) {
    const QualVec &Q = qualsOfVar(Var);
    if (Q.empty())
      continue;
    if (!First) {
      First = &Q;
      continue;
    }
    for (size_t I = 0; I < Q.size() && I < First->size(); ++I) {
      Graph.addFlow(Q[I], (*First)[I], {prov::FlowEdgeKind::Alias, Loc});
      Graph.addFlow((*First)[I], Q[I], {prov::FlowEdgeKind::Alias, Loc});
    }
  }
}

void QualInference::analyzeAll() {
  analyzeGlobals();
  for (const CFuncDecl *F : Program.funcs())
    if (F->isDefined())
      analyzeFunction(F);
}

void QualInference::analyzeGlobals() {
  if (GlobalsAnalyzed)
    return;
  GlobalsAnalyzed = true;
  for (const CGlobalDecl *G : Program.globals()) {
    qualsOfGlobal(G);
    if (G->init()) {
      QualVec Init = qualsOfExpr(G->init(), nullptr);
      flowInto(Init, qualsOfGlobal(G));
    }
  }
}

void QualInference::analyzeFunction(const CFuncDecl *F) {
  if (!F->isDefined() || FuncInfo[F->index()].Analyzed)
    return;
  FuncInfo[F->index()].Analyzed = true;
  // Materialize parameter and return qualifiers.
  for (unsigned I = 0; I != F->params().size(); ++I)
    qualsOfParam(F, I);
  qualsOfReturn(F);
  analyzeStmt(F->body(), F);
}

void QualInference::analyzeStmt(const CStmt *S, const CFuncDecl *Func) {
  switch (S->kind()) {
  case CStmtKind::Expr:
    qualsOfExpr(cast<CExprStmt>(S)->expr(), Func);
    return;
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    // Register the local's qualifiers from its declared type.
    Memo &Var = LocalVars[Func->firstSlot() + D->slot()];
    if (!Var.Made) {
      Var.Made = true;
      Var.Quals = makeQualsForType(D->type(), Func->name() + "::" + D->name(),
                                   D->loc());
    }
    if (D->init()) {
      QualVec Init = qualsOfExpr(D->init(), Func);
      flowInto(Init, Var.Quals);
    }
    return;
  }
  case CStmtKind::If: {
    // Flow-insensitive and path-insensitive: both branches contribute,
    // the condition constrains nothing.
    const auto *I = cast<CIfStmt>(S);
    qualsOfExpr(I->cond(), Func);
    analyzeStmt(I->thenStmt(), Func);
    if (I->elseStmt())
      analyzeStmt(I->elseStmt(), Func);
    return;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    qualsOfExpr(W->cond(), Func);
    analyzeStmt(W->body(), Func);
    return;
  }
  case CStmtKind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (R->value()) {
      QualVec V = qualsOfExpr(R->value(), Func);
      flowInto(V, qualsOfReturn(Func));
    }
    return;
  }
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      analyzeStmt(Sub, Func);
    return;
  }
}

QualVec QualInference::analyzeCall(const CCall *Call, const CFuncDecl *Func) {
  // malloc returns a fresh non-null pointer.
  if (CSema::callsBuiltinMalloc(Call)) {
    for (const CExpr *Arg : Call->args())
      qualsOfExpr(Arg, Func);
    QualVec Out;
    Out.push_back(Graph.newNode("malloc result", Call->loc()));
    return Out;
  }

  std::vector<QualVec> ArgQuals;
  for (const CExpr *Arg : Call->args())
    ArgQuals.push_back(qualsOfExpr(Arg, Func));

  const CFuncDecl *Callee = Sema.directCallee(Call);
  if (Callee) {
    // MIXY's frontier: a call to a MIX(symbolic) function switches
    // analyses through the hook.
    if (Hook && Callee->mixAnnot() == MixAnnot::Symbolic) {
      QualVec Ret;
      if (Hook->handleSymbolicCall(*this, Call, Callee, ArgQuals, Ret))
        return Ret;
    }
    for (unsigned I = 0;
         I != ArgQuals.size() && I != Callee->params().size(); ++I)
      flowInto(ArgQuals[I], qualsOfParam(Callee, I));
    return qualsOfReturn(Callee);
  }

  // Indirect call: conservatively bind against every function whose
  // signature is compatible (the monomorphic approximation CilQual
  // makes with CIL's call-graph).
  const CType *CalleeTy = Sema.typeOf(Call->callee());
  QualVec Ret;
  if (CalleeTy && CalleeTy->isPointer())
    CalleeTy = CalleeTy->pointee();
  for (const CFuncDecl *F : Program.funcs()) {
    if (!CalleeTy || !CalleeTy->isFunc())
      break;
    if (F->params().size() != CalleeTy->params().size())
      continue;
    for (unsigned I = 0;
         I != ArgQuals.size() && I != F->params().size(); ++I)
      flowInto(ArgQuals[I], qualsOfParam(F, I));
    const QualVec &FRet = qualsOfReturn(F);
    if (Ret.empty())
      Ret = FRet;
    else
      for (size_t I = 0; I < Ret.size() && I < FRet.size(); ++I)
        Graph.addFlow(FRet[I], Ret[I]);
  }
  return Ret;
}

QualVec QualInference::qualsOfExpr(const CExpr *E, const CFuncDecl *Func) {
  switch (E->kind()) {
  case CExprKind::IntLit:
  case CExprKind::SizeOf:
    return {};
  case CExprKind::StrLit: {
    QualVec Out;
    Out.push_back(Graph.newNode("string literal", E->loc()));
    return Out;
  }
  case CExprKind::NullLit: {
    QualVec Out;
    QualGraph::Node N = Graph.newNode("NULL", E->loc());
    Graph.markNullSource(N);
    Out.push_back(N);
    return Out;
  }
  case CExprKind::Ident: {
    const auto *Id = cast<CIdent>(E);
    switch (Id->nameKind()) {
    case CNameKind::Local:
      return qualsOfVar({Func, Id->localSlot()});
    case CNameKind::Global:
      return qualsOfGlobal(Id->global());
    case CNameKind::Function: {
      // A function name used as a value: a non-null function pointer.
      QualVec Out;
      Out.push_back(Graph.newNode("&" + Id->name(), E->loc()));
      return Out;
    }
    case CNameKind::Unresolved:
      return {};
    }
    return {};
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    QualVec Sub = qualsOfExpr(U->sub(), Func);
    switch (U->op()) {
    case CUnaryOp::Deref: {
      if (Opts.WarnAllDereferences && !Sub.empty()) {
        QualGraph::Node Bound =
            Graph.newNode("dereference", E->loc());
        Graph.markNonnullBound(Bound);
        Graph.addFlow(Sub[0], Bound);
      }
      if (Sub.empty())
        return {};
      return QualVec(Sub.begin() + 1, Sub.end());
    }
    case CUnaryOp::AddrOf: {
      QualVec Out;
      Out.push_back(Graph.newNode("address-of", E->loc()));
      Out.insert(Out.end(), Sub.begin(), Sub.end());
      return Out;
    }
    case CUnaryOp::Not:
    case CUnaryOp::Neg:
      return {};
    }
    return {};
  }
  case CExprKind::Binary: {
    const auto *B = cast<CBinary>(E);
    QualVec L = qualsOfExpr(B->lhs(), Func);
    QualVec R = qualsOfExpr(B->rhs(), Func);
    if (B->op() == CBinaryOp::Add || B->op() == CBinaryOp::Sub) {
      // Pointer arithmetic preserves the pointer's qualifiers.
      if (!L.empty())
        return L;
      if (!R.empty())
        return R;
    }
    // Comparisons and logic: path-insensitive, no constraints.
    return {};
  }
  case CExprKind::Assign: {
    const auto *A = cast<CAssign>(E);
    QualVec Target = qualsOfExpr(A->target(), Func);
    QualVec Value = qualsOfExpr(A->value(), Func);
    flowInto(Value, Target);
    return Target;
  }
  case CExprKind::Call:
    return analyzeCall(cast<CCall>(E), Func);
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    QualVec Base = qualsOfExpr(M->base(), Func);
    if (M->isArrow() && Opts.WarnAllDereferences && !Base.empty()) {
      QualGraph::Node Bound = Graph.newNode("dereference", E->loc());
      Graph.markNonnullBound(Bound);
      Graph.addFlow(Base[0], Bound);
    }
    // Resolve the struct type to find the field's qualifier slot.
    const CType *BaseTy = Sema.typeOf(M->base());
    if (!BaseTy)
      return {};
    const CType *StructTy = M->isArrow() ? BaseTy->pointee() : BaseTy;
    if (!StructTy->isStruct())
      return {};
    return qualsOfField(StructTy->structDecl(), M->field());
  }
  case CExprKind::Cast: {
    // Casts pass qualifiers through (the (T*)malloc(...) idiom).
    return qualsOfExpr(cast<CCast>(E)->sub(), Func);
  }
  }
  return {};
}

unsigned QualInference::reportWarnings() {
  unsigned Count = 0;
  for (QualGraph::Node N : Graph.violations()) {
    ++Count;
    size_t Idx = Diags.report(DiagKind::Warning, Graph.location(N),
                              "null value may reach nonnull position '" +
                                  Graph.description(N) + "'",
                              DiagID::NullWarning);
    if (Opts.Prov) {
      auto P = std::make_shared<prov::DiagProvenance>();
      P->Flow = Graph.flowChain(N);
      Diags.attachProvenance(Idx, std::move(P));
      Opts.Prov->countFlow();
    }
    std::vector<QualGraph::Node> Path = Graph.witnessPath(N);
    if (!Path.empty())
      Diags.note(Graph.location(Path.front()),
                 "qualifier flow: " + Graph.describePath(Path),
                 DiagID::QualFlowNote);
  }
  return Count;
}
