//===--- QualInference.cpp - null/nonnull qualifier inference --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "qual/QualInference.h"

using namespace mix::c;

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

const QualVec &QualInference::qualsOfVar(const CFuncDecl *Func,
                                         const std::string &Name) {
  auto Key = std::make_pair(Func, Name);
  auto It = VarQuals.find(Key);
  if (It != VarQuals.end())
    return It->second;

  const CType *Ty = nullptr;
  SourceLoc Loc;
  std::string Description;
  if (Func) {
    for (const auto &P : Func->params())
      if (P.Name == Name) {
        Ty = P.Ty;
        Loc = Func->loc();
      }
    Description = Func->name() + "::" + Name;
  }
  if (!Ty) {
    if (const CGlobalDecl *G = Program.findGlobal(Name)) {
      Ty = G->type();
      Loc = G->loc();
      Description = Name;
    }
  }
  // Locals are registered eagerly by analyzeStmt; reaching here with an
  // unknown name means the caller asked before analysis or the name is a
  // local not yet seen — create placeholder variables from no type.
  QualVec Quals =
      Ty ? makeQualsForType(Ty, Description, Loc) : QualVec();
  return VarQuals.emplace(Key, std::move(Quals)).first->second;
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
  auto It = ReturnQuals.find(F);
  if (It != ReturnQuals.end())
    return It->second;
  QualVec Quals = makeQualsForType(F->returnType(),
                                   "return of " + F->name(), F->loc());
  return ReturnQuals.emplace(F, std::move(Quals)).first->second;
}

const QualVec &QualInference::qualsOfParam(const CFuncDecl *F,
                                           unsigned Index) {
  auto Key = std::make_pair(F, Index);
  auto It = ParamQuals.find(Key);
  if (It != ParamQuals.end())
    return It->second;
  assert(Index < F->params().size() && "parameter index out of range");
  const auto &P = F->params()[Index];
  QualVec Quals = makeQualsForType(
      P.Ty, "param " + P.Name + " of " + F->name(), F->loc());
  // Parameters are storage too: unify with the variable slot so body
  // references see the same qualifiers.
  auto VarKey = std::make_pair(F, P.Name);
  auto VarIt = VarQuals.find(VarKey);
  if (VarIt == VarQuals.end())
    VarQuals.emplace(VarKey, Quals);
  else
    for (size_t I = 0; I < Quals.size() && I < VarIt->second.size(); ++I) {
      Graph.addFlow(Quals[I], VarIt->second[I]);
      Graph.addFlow(VarIt->second[I], Quals[I]);
    }
  return ParamQuals.emplace(Key, std::move(Quals)).first->second;
}

void QualInference::seedNull(QualGraph::Node N, const std::string &Reason,
                             SourceLoc Loc, prov::FlowEdgeKind Kind) {
  QualGraph::Node Source = Graph.newNode(Reason, Loc);
  Graph.markNullSource(Source);
  Graph.addFlow(Source, N, {Kind, Loc});
}

void QualInference::unifyAliasClass(
    const std::vector<std::pair<const CFuncDecl *, std::string>> &Vars,
    SourceLoc Loc) {
  // "We add constraints to require that all may-aliased expressions have
  // the same type" (Section 4.2): bidirectional flows pairwise through
  // the first member.
  const QualVec *First = nullptr;
  for (const auto &[Func, Name] : Vars) {
    const QualVec &Q = qualsOfVar(Func, Name);
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
  CScope Empty;
  for (const CGlobalDecl *G : Program.globals()) {
    qualsOfVar(nullptr, G->name());
    if (G->init()) {
      QualVec Init = qualsOfExpr(G->init(), Empty);
      flowInto(Init, qualsOfVar(nullptr, G->name()));
    }
  }
}

void QualInference::analyzeFunction(const CFuncDecl *F) {
  if (!F->isDefined() || AnalyzedFuncs.count(F))
    return;
  AnalyzedFuncs.insert(F);
  // Materialize parameter and return qualifiers.
  for (unsigned I = 0; I != F->params().size(); ++I)
    qualsOfParam(F, I);
  qualsOfReturn(F);
  CScope Scope = CScope::forFunction(F);
  analyzeStmt(F->body(), Scope);
}

void QualInference::analyzeStmt(const CStmt *S, CScope &Scope) {
  switch (S->kind()) {
  case CStmtKind::Expr:
    qualsOfExpr(cast<CExprStmt>(S)->expr(), Scope);
    return;
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    Scope.Locals[D->name()] = D->type();
    // Register the local's qualifiers from its declared type.
    auto Key = std::make_pair(Scope.Func, D->name());
    if (!VarQuals.count(Key))
      VarQuals.emplace(Key,
                       makeQualsForType(D->type(),
                                        Scope.Func->name() + "::" + D->name(),
                                        D->loc()));
    if (D->init()) {
      QualVec Init = qualsOfExpr(D->init(), Scope);
      flowInto(Init, VarQuals[Key]);
    }
    return;
  }
  case CStmtKind::If: {
    // Flow-insensitive and path-insensitive: both branches contribute,
    // the condition constrains nothing.
    const auto *I = cast<CIfStmt>(S);
    qualsOfExpr(I->cond(), Scope);
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
    qualsOfExpr(W->cond(), Scope);
    CScope BodyScope = Scope;
    analyzeStmt(W->body(), BodyScope);
    return;
  }
  case CStmtKind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (R->value()) {
      QualVec V = qualsOfExpr(R->value(), Scope);
      flowInto(V, qualsOfReturn(Scope.Func));
    }
    return;
  }
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      analyzeStmt(Sub, Scope);
    return;
  }
}

QualVec QualInference::analyzeCall(const CCall *Call, const CScope &Scope) {
  // malloc returns a fresh non-null pointer.
  if (const auto *Id = dyn_cast<CIdent>(Call->callee()))
    if (Id->name() == "malloc" && !Program.findFunc("malloc")) {
      for (const CExpr *Arg : Call->args())
        qualsOfExpr(Arg, Scope);
      QualVec Out;
      Out.push_back(Graph.newNode("malloc result", Call->loc()));
      return Out;
    }

  std::vector<QualVec> ArgQuals;
  for (const CExpr *Arg : Call->args())
    ArgQuals.push_back(qualsOfExpr(Arg, Scope));

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
  const CType *CalleeTy = Sema.typeOf(Call->callee(), Scope);
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

QualVec QualInference::qualsOfExpr(const CExpr *E, const CScope &Scope) {
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
    if (Scope.Locals.count(Id->name()))
      return qualsOfVar(Scope.Func, Id->name());
    if (Program.findGlobal(Id->name()))
      return qualsOfVar(nullptr, Id->name());
    if (Program.findFunc(Id->name())) {
      // A function name used as a value: a non-null function pointer.
      QualVec Out;
      Out.push_back(Graph.newNode("&" + Id->name(), E->loc()));
      return Out;
    }
    return {};
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    QualVec Sub = qualsOfExpr(U->sub(), Scope);
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
    QualVec L = qualsOfExpr(B->lhs(), Scope);
    QualVec R = qualsOfExpr(B->rhs(), Scope);
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
    QualVec Target = qualsOfExpr(A->target(), Scope);
    QualVec Value = qualsOfExpr(A->value(), Scope);
    flowInto(Value, Target);
    return Target;
  }
  case CExprKind::Call:
    return analyzeCall(cast<CCall>(E), Scope);
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    QualVec Base = qualsOfExpr(M->base(), Scope);
    if (M->isArrow() && Opts.WarnAllDereferences && !Base.empty()) {
      QualGraph::Node Bound = Graph.newNode("dereference", E->loc());
      Graph.markNonnullBound(Bound);
      Graph.addFlow(Base[0], Bound);
    }
    // Resolve the struct type to find the field's qualifier slot.
    const CType *BaseTy = Sema.typeOf(M->base(), Scope);
    if (!BaseTy)
      return {};
    const CType *StructTy = M->isArrow() ? BaseTy->pointee() : BaseTy;
    if (!StructTy->isStruct())
      return {};
    return qualsOfField(StructTy->structDecl(), M->field());
  }
  case CExprKind::Cast: {
    // Casts pass qualifiers through (the (T*)malloc(...) idiom).
    return qualsOfExpr(cast<CCast>(E)->sub(), Scope);
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
