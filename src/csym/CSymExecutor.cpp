//===--- CSymExecutor.cpp - Symbolic executor for mini-C --------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "csym/CSymExecutor.h"

using namespace mix::c;
using mix::smt::Term;

/// A one-element vector that takes \p X by move. A braced return such as
/// `return {{std::move(State), V}};` goes through an initializer_list,
/// whose const elements can only be copied.
template <typename T> static std::vector<T> one(T &&X) {
  std::vector<T> Out;
  Out.push_back(std::move(X));
  return Out;
}

CSymExecutor::CSymExecutor(const CProgram &Program, CAstContext &Ctx,
                           DiagnosticEngine &Diags, smt::TermArena &Terms,
                           smt::ISolver &Solver, CSymOptions Opts)
    : Program(Program), Ctx(Ctx), Sema(Program, Ctx, Diags), Diags(Diags),
      Terms(Terms), Solver(Solver),
      PathChecker(Solver, Opts.IncrementalSolver, Solver.options().Metrics),
      Opts(Opts) {
  Objects.push_back({nullptr, "<none>"}); // slot 0 = NoLoc
}

LocId CSymExecutor::newObject(const CType *Ty, std::string Name) {
  Objects.push_back({Ty, std::move(Name)});
  return (LocId)(Objects.size() - 1);
}

LocId CSymExecutor::globalLoc(const std::string &Name) {
  auto It = GlobalLocs.find(Name);
  if (It != GlobalLocs.end())
    return It->second;
  const CGlobalDecl *G = Program.findGlobal(Name);
  assert(G && "globalLoc() for unknown global");
  LocId Loc = newObject(G->type(), Name);
  GlobalLocs[Name] = Loc;
  return Loc;
}

const CType *CSymExecutor::cellType(LocId Loc,
                                    const std::string &Field) const {
  const CType *Ty = Objects[Loc].Ty;
  std::string Rest = Field;
  while (Ty && !Rest.empty()) {
    size_t Dot = Rest.find('.');
    std::string Head = Rest.substr(0, Dot);
    Rest = Dot == std::string::npos ? "" : Rest.substr(Dot + 1);
    if (!Ty->isStruct())
      return nullptr;
    const CStructDecl::Field *F = Ty->structDecl()->findField(Head);
    if (!F)
      return nullptr;
    Ty = F->Ty;
  }
  return Ty;
}

bool CSymExecutor::feasible(const CSymState &State) {
  if (State.Path->kind() == smt::TermKind::BoolConst)
    return State.Path->value() != 0;
  return PathChecker.checkPath(State.PC, State.Path) !=
         smt::SolveResult::Unsat;
}

bool CSymExecutor::feasibleWith(const CSymState &State, const Term *Extra) {
  const Term *Whole = Terms.andTerm(State.Path, Extra);
  if (Whole->kind() == smt::TermKind::BoolConst)
    return Whole->value() != 0;
  return PathChecker.checkPathWith(State.PC, State.Path, Extra) !=
         smt::SolveResult::Unsat;
}

void CSymExecutor::warn(SourceLoc Loc, const std::string &Message,
                        const CSymState *State, const Term *WitnessCond) {
  std::string Key = Loc.str() + "|" + Message;
  if (!EmittedWarnings.insert(Key).second)
    return;
  ++WarningsThisRun;
  size_t Idx = Diags.report(DiagKind::Warning, Loc, Message);
  if (Opts.Prov && State) {
    auto Payload = std::make_shared<prov::DiagProvenance>();
    prov::WitnessPath W;
    W.Steps = State->Trail;
    const Term *Cond = WitnessCond ? WitnessCond : State->Path;
    // Renumber variables in first-occurrence order: the raw arena indices
    // depend on how many fresh terms the executor had already allocated,
    // which varies with cache hits and replay, and the rendered condition
    // must be byte-identical cold and warm.
    W.PathCondition = smt::normalizedStr(Cond);
    smt::SmtModel Model;
    if (Solver.checkSat(Cond, &Model) == smt::SolveResult::Sat) {
      for (auto &[Name, Value] : smt::modelBindings(Terms, Model))
        W.Model.push_back({Name, Value});
      W.ModelComplete = Model.Complete;
    }
    W.DecidedBy = Solver.name();
    Payload->Witness = std::move(W);
    Diags.attachProvenance(Idx, std::move(Payload));
    Opts.Prov->countWitness();
  }
}

CSymValue CSymExecutor::seededPointer(const CType *PtrTy, NullSeed Seed,
                                      const std::string &Name) {
  assert(PtrTy->isPointer() && "seededPointer() needs a pointer type");
  const CType *Pointee = PtrTy->pointee();
  if (Pointee->isFunc())
    return CSymValue::pointerTo(Terms, PtrTarget::unknownFn());
  // void* pointees become int cells (the paper's executor is untyped at
  // this level; ours needs some object type).
  if (Pointee->isVoid())
    Pointee = Ctx.intType();
  LocId Obj = newObject(Pointee, Name + "->");
  if (Seed == NullSeed::Nonnull)
    return CSymValue::pointerTo(Terms, PtrTarget::object(Obj));
  // (alpha ? loc : 0) — Section 4.1.
  const Term *Alpha = Terms.freshBoolVar(Name + "_nonnull");
  return CSymValue::pointer({{Alpha, PtrTarget::object(Obj)},
                             {Terms.notTerm(Alpha), PtrTarget::null()}});
}

CSymValue CSymExecutor::lazyInit(const CType *Ty, const std::string &Name) {
  if (!Ty)
    return CSymValue::scalar(Terms.freshIntVar(Name));
  if (Ty->isPointer()) {
    NullSeed Seed = NullSeed::MayBeNull;
    if (Ty->qualifier() == QualAnnot::Nonnull)
      Seed = NullSeed::Nonnull;
    else if (Ty->qualifier() == QualAnnot::None && !Opts.ParamsMayBeNull)
      Seed = NullSeed::Nonnull;
    return seededPointer(Ty, Seed, Name);
  }
  // Scalars (and, degenerately, whole structs read as values).
  return CSymValue::scalar(Terms.freshIntVar(Name));
}

CSymValue CSymExecutor::readCell(CSymState &State, LocId Loc,
                                 const std::string &Field) {
  CellKey Key{Loc, Field};
  if (const CSymValue *V = State.Store.get(Key))
    return *V;
  std::string Name = Objects[Loc].Name;
  if (!Field.empty())
    Name += "." + Field;
  CSymValue Init = lazyInit(cellType(Loc, Field), Name);
  State.Store.set(Key, Init);
  return Init;
}

void CSymExecutor::writeCells(CSymState &State,
                              const std::vector<LVal> &Cells,
                              const CSymValue &Value) {
  for (const LVal &Cell : Cells) {
    CellKey Key{Cell.Loc, Cell.Field};
    if (Cell.Guard->kind() == smt::TermKind::BoolConst &&
        Cell.Guard->value()) {
      // Strong update.
      State.Store.set(Key, Value);
      continue;
    }
    // Morris's general axiom of assignment: conditional update of every
    // possibly-aliased cell.
    CSymValue Old = readCell(State, Cell.Loc, Cell.Field);
    if (Old.kind() != Value.kind()) {
      // Type confusion through a wild pointer; overwrite outright under
      // the guard by preferring the new value.
      State.Store.set(Key, Value);
      continue;
    }
    State.Store.set(Key, CSymValue::ite(Terms, Cell.Guard, Value, Old));
  }
}

const Term *CSymExecutor::truthTerm(const CSymValue &V) {
  if (V.isPtr())
    return V.nonNullGuard(Terms);
  const Term *T = V.scalarTerm();
  if (T->isBool())
    return T;
  return Terms.notTerm(Terms.eqInt(T, Terms.intConst(0)));
}

const Term *CSymExecutor::intTerm(const CSymValue &V) {
  if (V.isPtr())
    // Pointers used as integers: only their nullness is observable.
    return Terms.iteInt(V.nonNullGuard(Terms), Terms.freshIntVar("ptrint"),
                        Terms.intConst(0));
  const Term *T = V.scalarTerm();
  if (T->isBool())
    return Terms.iteInt(T, Terms.intConst(1), Terms.intConst(0));
  return T;
}

// === lvalue resolution ======================================================

std::vector<CSymExecutor::LResolved>
CSymExecutor::resolveLValue(const CExpr *E, CSymState State,
                            const Frame &Frame) {
  switch (E->kind()) {
  case CExprKind::Ident: {
    const auto *Id = cast<CIdent>(E);
    LocId Loc = NoLoc;
    auto It = State.Locals.find(Id->name());
    if (It != State.Locals.end())
      Loc = It->second;
    else if (Program.findGlobal(Id->name()))
      Loc = globalLoc(Id->name());
    if (Loc == NoLoc) {
      warn(E->loc(), "unknown variable '" + Id->name() + "'");
      return {};
    }
    return one(LResolved{std::move(State), {{Terms.trueTerm(), Loc, ""}}});
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    if (U->op() != CUnaryOp::Deref)
      break;
    std::vector<LResolved> Out;
    for (Flow &F : evalExpr(U->sub(), std::move(State), Frame)) {
      if (!F.Value.isPtr()) {
        warn(E->loc(), "dereference of a non-pointer value");
        continue;
      }
      // Null-dereference check (the executor "reports an error if 0 is
      // ever dereferenced").
      if (Opts.CheckDereferences) {
        ++Statistics.NullChecks;
        const Term *NullG = F.Value.nullGuard(Terms);
        if (feasibleWith(F.State, NullG))
          warn(E->loc(), "possible null dereference", &F.State,
               Terms.andTerm(F.State.Path, NullG));
      }
      // Continue under the assumption the dereference survived.
      LResolved R;
      R.State = std::move(F.State);
      extendPath(R.State, F.Value.nonNullGuard(Terms));
      if (!feasible(R.State))
        continue; // definitely null: this path dies here
      for (const PtrCase &C : F.Value.cases()) {
        if (C.Target.K != PtrTarget::Kind::Object)
          continue;
        R.Cells.push_back({C.Guard, C.Target.Loc, C.Target.Field});
      }
      Out.push_back(std::move(R));
    }
    return Out;
  }
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    if (!M->isArrow()) {
      // base.field: extend the base cells' field paths.
      std::vector<LResolved> Out = resolveLValue(M->base(), std::move(State),
                                                 Frame);
      for (LResolved &R : Out)
        for (LVal &Cell : R.Cells)
          Cell.Field = Cell.Field.empty() ? M->field()
                                          : Cell.Field + "." + M->field();
      return Out;
    }
    // base->field: like *base, then select the field.
    std::vector<LResolved> Out;
    for (Flow &F : evalExpr(M->base(), std::move(State), Frame)) {
      if (!F.Value.isPtr()) {
        warn(E->loc(), "'->' on a non-pointer value");
        continue;
      }
      if (Opts.CheckDereferences) {
        ++Statistics.NullChecks;
        const Term *NullG = F.Value.nullGuard(Terms);
        if (feasibleWith(F.State, NullG))
          warn(E->loc(), "possible null dereference", &F.State,
               Terms.andTerm(F.State.Path, NullG));
      }
      LResolved R;
      R.State = std::move(F.State);
      extendPath(R.State, F.Value.nonNullGuard(Terms));
      if (!feasible(R.State))
        continue;
      for (const PtrCase &C : F.Value.cases()) {
        if (C.Target.K != PtrTarget::Kind::Object)
          continue;
        std::string Field = C.Target.Field.empty()
                                ? M->field()
                                : C.Target.Field + "." + M->field();
        R.Cells.push_back({C.Guard, C.Target.Loc, Field});
      }
      Out.push_back(std::move(R));
    }
    return Out;
  }
  default:
    break;
  }
  warn(E->loc(), "expression is not an lvalue");
  return {};
}

// === expressions =============================================================

std::vector<CSymExecutor::Flow>
CSymExecutor::evalExpr(const CExpr *E, CSymState State, const Frame &Frame) {
  switch (E->kind()) {
  case CExprKind::IntLit:
    return one(Flow{std::move(State),
                    CSymValue::scalar(
                        Terms.intConst(cast<CIntLit>(E)->value()))});
  case CExprKind::SizeOf:
    // A nonzero size constant; the exact value is immaterial here.
    return one(Flow{std::move(State), CSymValue::scalar(Terms.intConst(8))});
  case CExprKind::StrLit: {
    LocId Obj = newObject(Ctx.charType(), "<string>");
    return one(Flow{std::move(State),
                    CSymValue::pointerTo(Terms, PtrTarget::object(Obj))});
  }
  case CExprKind::NullLit:
    return one(Flow{std::move(State), CSymValue::nullPointer(Terms)});
  case CExprKind::Ident: {
    const auto *Id = cast<CIdent>(E);
    if (!State.Locals.count(Id->name()) &&
        !Program.findGlobal(Id->name()))
      if (const CFuncDecl *F = Program.findFunc(Id->name()))
        return one(Flow{std::move(State),
                        CSymValue::pointerTo(Terms, PtrTarget::function(F))});
    std::vector<Flow> Out;
    for (LResolved &R : resolveLValue(E, std::move(State), Frame)) {
      if (R.Cells.empty())
        continue;
      CSymValue V = readCell(R.State, R.Cells[0].Loc, R.Cells[0].Field);
      Out.push_back({std::move(R.State), std::move(V)});
    }
    return Out;
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    switch (U->op()) {
    case CUnaryOp::Deref: {
      std::vector<Flow> Out;
      for (Flow &F : evalExpr(U->sub(), std::move(State), Frame)) {
        // Functions decay: *f is f for function-pointer values.
        if (F.Value.isPtr()) {
          bool IsFnPtr = false;
          for (const PtrCase &C : F.Value.cases())
            if (C.Target.K == PtrTarget::Kind::Function ||
                C.Target.K == PtrTarget::Kind::UnknownFn)
              IsFnPtr = true;
          if (IsFnPtr) {
            Out.push_back(std::move(F));
            continue;
          }
        }
        if (!F.Value.isPtr()) {
          warn(E->loc(), "dereference of a non-pointer value");
          continue;
        }
        // Reading through a data pointer: null check, then merge the
        // possible cells' contents.
        if (Opts.CheckDereferences) {
          ++Statistics.NullChecks;
          const Term *NullG = F.Value.nullGuard(Terms);
          if (feasibleWith(F.State, NullG))
            warn(E->loc(), "possible null dereference", &F.State,
                 Terms.andTerm(F.State.Path, NullG));
        }
        CSymState S = std::move(F.State);
        extendPath(S, F.Value.nonNullGuard(Terms));
        if (!feasible(S))
          continue;
        CSymValue Acc;
        bool First = true;
        for (const PtrCase &C : F.Value.cases()) {
          if (C.Target.K != PtrTarget::Kind::Object)
            continue;
          CSymValue Next = readCell(S, C.Target.Loc, C.Target.Field);
          if (First) {
            Acc = std::move(Next);
            First = false;
          } else if (Next.kind() == Acc.kind()) {
            Acc = CSymValue::ite(Terms, C.Guard, Next, Acc);
          }
        }
        if (First)
          continue; // no object target: nothing to read
        Out.push_back({std::move(S), std::move(Acc)});
      }
      return Out;
    }
    case CUnaryOp::AddrOf: {
      std::vector<Flow> Out;
      for (LResolved &R :
           resolveLValue(U->sub(), std::move(State), Frame)) {
        std::vector<PtrCase> Cases;
        for (const LVal &Cell : R.Cells)
          Cases.push_back(
              {Cell.Guard, PtrTarget::object(Cell.Loc, Cell.Field)});
        if (Cases.empty())
          continue;
        Out.push_back({std::move(R.State), CSymValue::pointer(Cases)});
      }
      return Out;
    }
    case CUnaryOp::Not: {
      std::vector<Flow> Out;
      for (Flow &F : evalExpr(U->sub(), std::move(State), Frame)) {
        const Term *B = Terms.notTerm(truthTerm(F.Value));
        Out.push_back({std::move(F.State), CSymValue::scalar(B)});
      }
      return Out;
    }
    case CUnaryOp::Neg: {
      std::vector<Flow> Out;
      for (Flow &F : evalExpr(U->sub(), std::move(State), Frame))
        Out.push_back({std::move(F.State),
                       CSymValue::scalar(Terms.neg(intTerm(F.Value)))});
      return Out;
    }
    }
    return {};
  }
  case CExprKind::Binary: {
    const auto *B = cast<CBinary>(E);
    std::vector<Flow> Out;
    for (Flow &L : evalExpr(B->lhs(), std::move(State), Frame)) {
      for (Flow &R : evalExpr(B->rhs(), std::move(L.State), Frame)) {
        CSymValue V = evalBinaryValues(B->op(), L.Value, R.Value);
        Out.push_back({std::move(R.State), std::move(V)});
      }
    }
    return Out;
  }
  case CExprKind::Assign: {
    const auto *A = cast<CAssign>(E);
    std::vector<Flow> Out;
    for (LResolved &R :
         resolveLValue(A->target(), std::move(State), Frame)) {
      for (Flow &V : evalExpr(A->value(), std::move(R.State), Frame)) {
        writeCells(V.State, R.Cells, V.Value);
        Out.push_back({std::move(V.State), V.Value});
      }
    }
    return Out;
  }
  case CExprKind::Call:
    return evalCall(cast<CCall>(E), std::move(State), Frame);
  case CExprKind::Member: {
    std::vector<Flow> Out;
    for (LResolved &R : resolveLValue(E, std::move(State), Frame)) {
      if (R.Cells.empty())
        continue;
      CSymValue Acc = readCell(R.State, R.Cells[0].Loc, R.Cells[0].Field);
      for (size_t I = 1; I != R.Cells.size(); ++I) {
        CSymValue Next =
            readCell(R.State, R.Cells[I].Loc, R.Cells[I].Field);
        if (Next.kind() == Acc.kind())
          Acc = CSymValue::ite(Terms, R.Cells[I].Guard, Next, Acc);
      }
      Out.push_back({std::move(R.State), std::move(Acc)});
    }
    return Out;
  }
  case CExprKind::Cast: {
    const auto *C = cast<CCast>(E);
    // (T*)malloc(...): allocate an object of the cast's pointee type.
    if (const auto *Call = dyn_cast<CCall>(C->sub()))
      if (const auto *Id = dyn_cast<CIdent>(Call->callee()))
        if (Id->name() == "malloc" && !Program.findFunc("malloc") &&
            C->target()->isPointer()) {
          const CType *Pointee = C->target()->pointee();
          if (Pointee->isVoid())
            Pointee = Ctx.intType();
          LocId Obj = newObject(Pointee, "malloc@" + E->loc().str());
          return one(Flow{std::move(State),
                          CSymValue::pointerTo(Terms, PtrTarget::object(Obj))});
        }
    return evalExpr(C->sub(), std::move(State), Frame);
  }
  }
  return {};
}

CSymValue CSymExecutor::evalBinaryValues(CBinaryOp Op, const CSymValue &L,
                                         const CSymValue &R) {
  // Pointer comparisons.
  if ((L.isPtr() || R.isPtr()) &&
      (Op == CBinaryOp::Eq || Op == CBinaryOp::Ne)) {
    const Term *EqG = pointerEqGuard(L, R);
    return CSymValue::scalar(Op == CBinaryOp::Eq ? EqG
                                                 : Terms.notTerm(EqG));
  }
  // Pointer arithmetic keeps the pointer (offsets are not modeled).
  if (L.isPtr() && (Op == CBinaryOp::Add || Op == CBinaryOp::Sub))
    return L;
  if (R.isPtr() && Op == CBinaryOp::Add)
    return R;

  switch (Op) {
  case CBinaryOp::Add:
    return CSymValue::scalar(Terms.add(intTerm(L), intTerm(R)));
  case CBinaryOp::Sub:
    return CSymValue::scalar(Terms.sub(intTerm(L), intTerm(R)));
  case CBinaryOp::Eq:
    return CSymValue::scalar(Terms.eqInt(intTerm(L), intTerm(R)));
  case CBinaryOp::Ne:
    return CSymValue::scalar(
        Terms.notTerm(Terms.eqInt(intTerm(L), intTerm(R))));
  case CBinaryOp::Lt:
    return CSymValue::scalar(Terms.lt(intTerm(L), intTerm(R)));
  case CBinaryOp::Gt:
    return CSymValue::scalar(Terms.lt(intTerm(R), intTerm(L)));
  case CBinaryOp::Le:
    return CSymValue::scalar(Terms.le(intTerm(L), intTerm(R)));
  case CBinaryOp::Ge:
    return CSymValue::scalar(Terms.le(intTerm(R), intTerm(L)));
  case CBinaryOp::LAnd:
    // Both operands were evaluated (side effects of the right-hand side
    // are not short-circuited — a documented simplification).
    return CSymValue::scalar(Terms.andTerm(truthTerm(L), truthTerm(R)));
  case CBinaryOp::LOr:
    return CSymValue::scalar(Terms.orTerm(truthTerm(L), truthTerm(R)));
  }
  return CSymValue::scalar(Terms.intConst(0));
}

const Term *CSymExecutor::pointerEqGuard(const CSymValue &L,
                                         const CSymValue &R) {
  // Scalar zero against a pointer: a null test.
  auto IsZero = [](const CSymValue &V) {
    return V.isScalar() && V.scalarTerm()->kind() == smt::TermKind::IntConst &&
           V.scalarTerm()->value() == 0;
  };
  if (L.isPtr() && IsZero(R))
    return L.nullGuard(Terms);
  if (R.isPtr() && IsZero(L))
    return R.nullGuard(Terms);
  if (!L.isPtr() || !R.isPtr())
    return Terms.freshBoolVar("ptrcmp");

  const Term *EqG = Terms.falseTerm();
  for (const PtrCase &A : L.cases())
    for (const PtrCase &B : R.cases()) {
      const Term *Both = Terms.andTerm(A.Guard, B.Guard);
      if (A.Target.K == PtrTarget::Kind::UnknownFn ||
          B.Target.K == PtrTarget::Kind::UnknownFn) {
        EqG = Terms.orTerm(EqG,
                           Terms.andTerm(Both, Terms.freshBoolVar("ucmp")));
        continue;
      }
      if (A.Target == B.Target)
        EqG = Terms.orTerm(EqG, Both);
    }
  return EqG;
}

// === calls ===================================================================

std::vector<CSymExecutor::Flow>
CSymExecutor::evalCall(const CCall *Call, CSymState State,
                       const Frame &Frame) {
  // Bare malloc (no cast): an int-typed object.
  if (const auto *Id = dyn_cast<CIdent>(Call->callee()))
    if (Id->name() == "malloc" && !Program.findFunc("malloc")) {
      LocId Obj = newObject(Ctx.intType(), "malloc@" + Call->loc().str());
      return one(Flow{std::move(State),
                      CSymValue::pointerTo(Terms, PtrTarget::object(Obj))});
    }

  // Evaluate the arguments left to right, threading states.
  std::vector<std::pair<CSymState, std::vector<CSymValue>>> ArgStates;
  ArgStates.emplace_back(std::move(State), std::vector<CSymValue>());
  for (const CExpr *Arg : Call->args()) {
    std::vector<std::pair<CSymState, std::vector<CSymValue>>> Next;
    for (auto &[S, Vals] : ArgStates)
      for (Flow &F : evalExpr(Arg, std::move(S), Frame)) {
        std::vector<CSymValue> Extended = Vals;
        Extended.push_back(F.Value);
        Next.emplace_back(std::move(F.State), std::move(Extended));
      }
    ArgStates = std::move(Next);
  }

  std::vector<Flow> Out;
  const CFuncDecl *Direct = Sema.directCallee(Call);

  for (auto &[S, Args] : ArgStates) {
    if (Direct) {
      dispatchCall(Call, Direct, Args, std::move(S), Frame, Out);
      continue;
    }
    // Indirect call: evaluate the callee pointer and fork per target.
    for (Flow &F : evalExpr(Call->callee(), std::move(S), Frame)) {
      if (!F.Value.isPtr()) {
        warn(Call->loc(), "call through a non-pointer value");
        continue;
      }
      bool AnyTarget = false;
      for (const PtrCase &C : F.Value.cases()) {
        if (!feasibleWith(F.State, C.Guard))
          continue;
        // A data object is not callable, so its branch would go unused.
        if (C.Target.K == PtrTarget::Kind::Object)
          continue;
        CSymState Branch = fork(F.State);
        extendPath(Branch, C.Guard);
        switch (C.Target.K) {
        case PtrTarget::Kind::Function:
          AnyTarget = true;
          dispatchCall(Call, C.Target.Fn, Args, std::move(Branch), Frame,
                       Out);
          break;
        case PtrTarget::Kind::UnknownFn: {
          // Section 4.5, Case 4: "our symbolic executor does not support
          // calling symbolic function pointers". Warn and model the call
          // conservatively.
          AnyTarget = true;
          warn(Call->loc(),
               "call through unknown function pointer cannot be "
               "executed symbolically; consider MIX(typed)",
               &Branch);
          Out.push_back(externCall(nullptr, std::move(Branch)));
          break;
        }
        case PtrTarget::Kind::Null:
          warn(Call->loc(), "possible call through null function pointer",
               &Branch);
          break;
        case PtrTarget::Kind::Object: // skipped above
          break;
        }
      }
      if (!AnyTarget)
        warn(Call->loc(), "indirect call has no callable target");
    }
  }
  return Out;
}

void CSymExecutor::dispatchCall(const CCall *Call, const CFuncDecl *Callee,
                                const std::vector<CSymValue> &Args,
                                CSymState State, const Frame &Frame,
                                std::vector<Flow> &Out) {
  // MIXY's frontier: MIX(typed) functions are modeled by the type system.
  if (Hook && Callee->mixAnnot() == MixAnnot::Typed) {
    CSymValue Ret;
    if (Hook->callTypedFunction(*this, State, Call, Callee, Args, Ret)) {
      Out.push_back({std::move(State), std::move(Ret)});
      return;
    }
  }

  // Nonnull annotations on parameters are checked at the call even when
  // the body is not executed (the sysutil_free(nonnull) pattern).
  if (Opts.CheckNonnullArguments) {
    for (size_t I = 0; I != Args.size() && I != Callee->params().size();
         ++I) {
      const CType *ParamTy = Callee->params()[I].Ty;
      if (!ParamTy->isPointer() ||
          ParamTy->qualifier() != QualAnnot::Nonnull || !Args[I].isPtr())
        continue;
      ++Statistics.NullChecks;
      const Term *NullG = Args[I].nullGuard(Terms);
      const Term *NullPath = Terms.andTerm(State.Path, NullG);
      if (feasibleWith(State, NullG))
        warn(Call->loc(),
             "possibly-null argument passed to nonnull "
             "parameter '" +
                 Callee->params()[I].Name + "' of " + Callee->name(),
             &State, NullPath);
    }
  }

  if (!Callee->isDefined() || Frame.Depth >= Opts.MaxCallDepth) {
    if (Callee->isDefined())
      IncompleteThisRun = true; // depth budget truncated the inlining
    Out.push_back(externCall(Callee, std::move(State)));
    return;
  }

  ++Statistics.CallsInlined;
  for (Flow &F : inlineCall(Callee, Args, std::move(State),
                            Frame.Depth + 1))
    Out.push_back(std::move(F));
}

std::vector<CSymExecutor::Flow>
CSymExecutor::inlineCall(const CFuncDecl *F,
                         const std::vector<CSymValue> &Args, CSymState State,
                         unsigned Depth) {
  // Save the caller's local bindings; the callee gets fresh ones.
  std::map<std::string, LocId> CallerLocals = std::move(State.Locals);
  State.Locals.clear();

  Frame Callee;
  Callee.Func = F;
  Callee.Depth = Depth;

  for (size_t I = 0; I != F->params().size(); ++I) {
    const auto &P = F->params()[I];
    LocId Loc = newObject(P.Ty, F->name() + "::" + P.Name);
    State.Locals[P.Name] = Loc;
    if (I < Args.size())
      State.Store.set({Loc, ""}, Args[I]);
  }

  std::vector<CSymState> Paths = execStmt(F->body(), std::move(State), Callee);
  std::vector<Flow> Out;
  for (CSymState &S : Paths) {
    CSymValue Ret;
    if (S.Returned)
      Ret = std::move(S.RetValue);
    else if (F->returnType()->isPointer())
      Ret = CSymValue::nullPointer(Terms);
    else
      Ret = CSymValue::scalar(Terms.intConst(0));
    S.Returned = false;
    S.RetValue = CSymValue();
    // The last path takes the caller's bindings; only the others copy.
    if (&S == &Paths.back())
      S.Locals = std::move(CallerLocals);
    else
      S.Locals = CallerLocals;
    Out.push_back({std::move(S), std::move(Ret)});
  }
  return Out;
}

CSymExecutor::Flow CSymExecutor::externCall(const CFuncDecl *Callee,
                                            CSymState State) {
  // Conservative model of an unknown body: no memory effects, a fresh
  // result shaped by the declared return type and its annotations.
  const CType *RetTy = Callee ? Callee->returnType() : nullptr;
  std::string Name = Callee ? Callee->name() + "()" : "<indirect>()";
  CSymValue Ret = RetTy && RetTy->isPointer()
                      ? lazyInit(RetTy, Name)
                      : CSymValue::scalar(Terms.freshIntVar(Name));
  return {std::move(State), std::move(Ret)};
}

// === statements ==============================================================

std::vector<CSymState> CSymExecutor::execStmt(const CStmt *S, CSymState State,
                                              const Frame &Frame) {
  if (State.Returned)
    return one(std::move(State));
  if (PathsThisRun > Opts.MaxPaths) {
    IncompleteThisRun = true;
    return one(std::move(State));
  }

  switch (S->kind()) {
  case CStmtKind::Expr: {
    std::vector<CSymState> Out;
    for (Flow &F : evalExpr(cast<CExprStmt>(S)->expr(), std::move(State),
                            Frame))
      Out.push_back(std::move(F.State));
    return Out;
  }
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    LocId Loc = newObject(D->type(), Frame.Func->name() + "::" + D->name());
    State.Locals[D->name()] = Loc;
    if (!D->init())
      return one(std::move(State));
    std::vector<CSymState> Out;
    for (Flow &F : evalExpr(D->init(), std::move(State), Frame)) {
      F.State.Store.set({Loc, ""}, F.Value);
      Out.push_back(std::move(F.State));
    }
    return Out;
  }
  case CStmtKind::If: {
    const auto *I = cast<CIfStmt>(S);
    std::vector<CSymState> Out;
    for (Flow &F : evalExpr(I->cond(), std::move(State), Frame)) {
      const Term *Cond = truthTerm(F.Value);

      if (feasibleWith(F.State, Cond)) {
        ++PathsThisRun;
        ++Statistics.PathsExplored;
        CSymState Then = fork(F.State);
        extendPath(Then, Cond);
        if (Opts.Prov)
          Then.Trail.push_back({I->cond()->loc(), "condition true"});
        for (CSymState &R : execStmt(I->thenStmt(), std::move(Then), Frame))
          Out.push_back(std::move(R));
      } else {
        ++Statistics.ForksPruned;
      }

      const Term *NotCond = Terms.notTerm(Cond);
      if (feasibleWith(F.State, NotCond)) {
        ++PathsThisRun;
        ++Statistics.PathsExplored;
        CSymState Else = std::move(F.State);
        extendPath(Else, NotCond);
        if (Opts.Prov)
          Else.Trail.push_back({I->cond()->loc(), "condition false"});
        if (I->elseStmt()) {
          for (CSymState &R :
               execStmt(I->elseStmt(), std::move(Else), Frame))
            Out.push_back(std::move(R));
        } else {
          Out.push_back(std::move(Else));
        }
      } else {
        ++Statistics.ForksPruned;
      }
    }
    return Out;
  }
  case CStmtKind::While:
    return execWhile(cast<CWhileStmt>(S), std::move(State), Frame);
  case CStmtKind::Return: {
    const auto *R = cast<CReturnStmt>(S);
    if (!R->value()) {
      State.Returned = true;
      State.RetValue = CSymValue::scalar(Terms.intConst(0));
      return one(std::move(State));
    }
    std::vector<CSymState> Out;
    for (Flow &F : evalExpr(R->value(), std::move(State), Frame)) {
      F.State.Returned = true;
      F.State.RetValue = std::move(F.Value);
      Out.push_back(std::move(F.State));
    }
    return Out;
  }
  case CStmtKind::Block: {
    std::vector<CSymState> Active;
    Active.push_back(std::move(State));
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts()) {
      std::vector<CSymState> Next;
      for (CSymState &A : Active)
        for (CSymState &R : execStmt(Sub, std::move(A), Frame))
          Next.push_back(std::move(R));
      Active = std::move(Next);
    }
    return Active;
  }
  }
  return one(std::move(State));
}

std::vector<CSymState> CSymExecutor::execWhile(const CWhileStmt *W,
                                               CSymState State,
                                               const Frame &Frame) {
  // Bounded unrolling: each round forks on the condition; paths that are
  // still looping after the bound are kept (without the exit constraint)
  // and the run is flagged incomplete.
  std::vector<CSymState> Active;
  Active.push_back(std::move(State));
  std::vector<CSymState> Exited;

  for (unsigned Round = 0; Round != Opts.LoopBound && !Active.empty();
       ++Round) {
    std::vector<CSymState> NextActive;
    for (CSymState &A : Active) {
      if (A.Returned) {
        Exited.push_back(std::move(A));
        continue;
      }
      for (Flow &F : evalExpr(W->cond(), std::move(A), Frame)) {
        const Term *Cond = truthTerm(F.Value);
        const Term *NotCond = Terms.notTerm(Cond);
        if (feasibleWith(F.State, NotCond)) {
          CSymState Exit = fork(F.State);
          extendPath(Exit, NotCond);
          if (Opts.Prov)
            Exit.Trail.push_back({W->cond()->loc(), "loop exit"});
          Exited.push_back(std::move(Exit));
        }
        if (feasibleWith(F.State, Cond)) {
          CSymState Loop = std::move(F.State);
          extendPath(Loop, Cond);
          if (Opts.Prov)
            Loop.Trail.push_back({W->cond()->loc(), "loop iteration"});
          for (CSymState &R : execStmt(W->body(), std::move(Loop), Frame))
            NextActive.push_back(std::move(R));
        }
      }
    }
    Active = std::move(NextActive);
  }

  if (!Active.empty()) {
    IncompleteThisRun = true;
    for (CSymState &A : Active)
      Exited.push_back(std::move(A));
  }
  return Exited;
}

// === entry point =============================================================

CSymResult
CSymExecutor::runFunction(const CFuncDecl *F,
                          const std::vector<NullSeed> &ParamSeeds,
                          const std::map<std::string, NullSeed> &GlobalSeeds) {
  assert(F->isDefined() && "runFunction() on an extern declaration");
  WarningsThisRun = 0;
  IncompleteThisRun = false;
  PathsThisRun = 0;

  CSymResult Result;
  CSymState State;
  State.Path = Terms.trueTerm();

  // Seed pointer-typed globals from the typed calling context.
  for (const auto &[Name, Seed] : GlobalSeeds) {
    const CGlobalDecl *G = Program.findGlobal(Name);
    if (!G || !G->type()->isPointer())
      continue;
    State.Store.set({globalLoc(Name), ""},
                    seededPointer(G->type(), Seed, Name));
  }

  Frame Top;
  Top.Func = F;
  Top.Depth = 0;

  for (size_t I = 0; I != F->params().size(); ++I) {
    const auto &P = F->params()[I];
    LocId Loc = newObject(P.Ty, F->name() + "::" + P.Name);
    State.Locals[P.Name] = Loc;

    if (P.Ty->isPointer()) {
      NullSeed Seed;
      if (I < ParamSeeds.size())
        Seed = ParamSeeds[I];
      else if (P.Ty->qualifier() == QualAnnot::Nonnull)
        Seed = NullSeed::Nonnull;
      else
        Seed = Opts.ParamsMayBeNull ? NullSeed::MayBeNull
                                    : NullSeed::Nonnull;
      CSymValue V = seededPointer(P.Ty, Seed, F->name() + "::" + P.Name);
      LocId Pointee = NoLoc;
      for (const PtrCase &C : V.cases())
        if (C.Target.K == PtrTarget::Kind::Object)
          Pointee = C.Target.Loc;
      Result.ParamPointeeLocs.push_back(Pointee);
      Result.ParamTerms.push_back(nullptr);
      State.Store.set({Loc, ""}, std::move(V));
    } else {
      Result.ParamPointeeLocs.push_back(NoLoc);
      const smt::Term *ParamTerm =
          Terms.freshIntVar(F->name() + "::" + P.Name);
      Result.ParamTerms.push_back(ParamTerm);
      State.Store.set({Loc, ""}, CSymValue::scalar(ParamTerm));
    }
  }

  for (CSymState &S : execStmt(F->body(), std::move(State), Top)) {
    CSymResult::PathOut P;
    P.Path = S.Path;
    P.Returned = S.Returned;
    if (S.Returned)
      P.Ret = std::move(S.RetValue);
    P.Store = std::move(S.Store);
    Result.Paths.push_back(std::move(P));
  }
  Result.Incomplete = IncompleteThisRun;
  Result.WarningCount = WarningsThisRun;
  return Result;
}

bool CSymExecutor::mayBeNull(const Term *Path, const CSymValue &Value) {
  if (!Value.isPtr())
    return false;
  const Term *NullG = Value.nullGuard(Terms);
  return !Solver.isDefinitelyUnsat(Terms.andTerm(Path, NullG));
}

std::optional<CSymValue>
CSymExecutor::finalCell(const CSymResult::PathOut &P, LocId Loc,
                        const std::string &Field) {
  const CSymValue *V = P.Store.get({Loc, Field});
  if (!V)
    return std::nullopt;
  return *V;
}
