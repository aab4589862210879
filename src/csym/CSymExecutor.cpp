//===--- CSymExecutor.cpp - Symbolic executor for mini-C --------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "csym/CSymExecutor.h"

#include "solver/TermEval.h"

#include <utility>

using namespace mix::c;
using mix::smt::Term;

/// A one-element list that takes \p X by move. A braced return such as
/// `return {{std::move(State), V}};` goes through an initializer_list,
/// whose const elements can only be copied.
template <typename T> static SmallList<T> one(T &&X) {
  return SmallList<T>(std::move(X));
}

CSymExecutor::CSymExecutor(const CProgram &Program, CAstContext &Ctx,
                           DiagnosticEngine &Diags, smt::TermArena &Terms,
                           smt::ISolver &Solver, CSymOptions Opts)
    : Program(Program), Ctx(Ctx), Sema(Program, Ctx, Diags), Diags(Diags),
      Terms(Terms), Solver(Solver), Opts(Opts),
      GlobalLocs(Program.globalSlots().size(), NoLoc),
      True(Terms.trueTerm()), NullPtr(CSymValue::nullPointer(Cases, Terms)) {
  Objects.push_back({nullptr, nullptr, 0, "<none>"}); // slot 0 = NoLoc
  if (obs::MetricsRegistry *M = Solver.options().Metrics) {
    CWitnessAnswers = M->counter("solver.inc.model_reuse");
    CBackendProbes = M->counter("solver.inc.queries");
  }
}

LocId CSymExecutor::newObject(const CType *Ty, std::string Name) {
  Objects.push_back({Ty, nullptr, 0, std::move(Name)});
  return (LocId)(Objects.size() - 1);
}

LocId CSymExecutor::newLocal(const CFuncDecl *F, unsigned Slot,
                             const CType *Ty) {
  Objects.push_back({Ty, F, Slot, {}});
  return (LocId)(Objects.size() - 1);
}

std::string CSymExecutor::objectName(LocId Loc) const {
  const ObjInfo &O = Objects[Loc];
  return O.Func ? O.Func->name() + "::" + O.Func->slotName(O.Slot) : O.Name;
}

LocId CSymExecutor::globalLoc(const CGlobalDecl *G) {
  LocId &Loc = GlobalLocs[G->slot()];
  if (Loc == NoLoc) {
    // Every declaration of the name shares the first one's object.
    const CGlobalDecl *First = Program.globalSlots()[G->slot()].Global;
    Loc = newObject(First->type(), First->name());
  }
  return Loc;
}

const CType *CSymExecutor::cellType(LocId Loc, FieldId Field) const {
  if (Field == WholeObject)
    return Objects[Loc].Ty;
  const CType *Ty = cellType(Loc, Fields.parent(Field));
  if (!Ty || !Ty->isStruct())
    return nullptr;
  const CStructDecl::Field *F =
      Ty->structDecl()->findField(Fields.lastName(Field));
  return F ? F->Ty : nullptr;
}

bool CSymExecutor::feasibleWith(const CSymState &State, const Term *Extra,
                                SharedModel *WitnessOut) {
  const Term *Whole = Terms.andTerm(State.Path, Extra);
  if (Whole->kind() == smt::TermKind::BoolConst) {
    if (WitnessOut)
      *WitnessOut = State.Witness;
    return Whole->value() != 0;
  }
  // The witness satisfies Path; if it satisfies Extra too, it is a model
  // of the extension. Only the backend answers Unsat, so a wrong witness
  // could only keep a path, never drop one.
  if (State.Witness && smt::evalBool(Extra, *State.Witness)) {
    CWitnessAnswers.inc();
    if (WitnessOut)
      *WitnessOut = State.Witness;
    return true;
  }
  CBackendProbes.inc();
  smt::SmtModel Model;
  smt::SolveResult R = Solver.checkSat(Whole, &Model);
  if (WitnessOut) {
    if (R == smt::SolveResult::Sat && Model.Complete)
      *WitnessOut = std::make_shared<const smt::SmtModel>(std::move(Model));
    else
      WitnessOut->reset();
  }
  return R != smt::SolveResult::Unsat;
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
    return pointerTo(PtrTarget::unknownFn());
  // void* pointees become int cells (the paper's executor is untyped at
  // this level; ours needs some object type).
  if (Pointee->isVoid())
    Pointee = Ctx.intType();
  LocId Obj = newObject(Pointee, Name + "->");
  if (Seed == NullSeed::Nonnull)
    return pointerTo(PtrTarget::object(Obj));
  // (alpha ? loc : 0) — Section 4.1.
  const Term *Alpha = Terms.freshBoolVar(Name + "_nonnull");
  return CSymValue::pointer(Cases,
                            {{Alpha, PtrTarget::object(Obj)},
                             {Terms.notTerm(Alpha), PtrTarget::null()}});
}

CSymValue CSymExecutor::lazyInit(const CType *Ty, const std::string &Name) {
  if (!Ty)
    return CSymValue::scalar(Terms.freshIntVar(Name));
  if (Ty->isPointer()) {
    NullSeed Seed = Ty->qualifier() == QualAnnot::Nonnull
                        ? NullSeed::Nonnull
                        : NullSeed::MayBeNull;
    return seededPointer(Ty, Seed, Name);
  }
  // Scalars (and, degenerately, whole structs read as values).
  return CSymValue::scalar(Terms.freshIntVar(Name));
}

CSymValue CSymExecutor::readCell(CSymState &State, CellKey Cell) {
  if (const CSymValue *V = State.Store.get(Cell))
    return *V;
  std::string Name = objectName(Cell.Loc);
  if (Cell.Field != WholeObject)
    Name += "." + Fields.spelling(Cell.Field);
  CSymValue Init = lazyInit(cellType(Cell.Loc, Cell.Field), Name);
  State.Store.set(Cell, Init);
  return Init;
}

void CSymExecutor::writeCells(CSymState &State, const SmallList<LVal> &Cells,
                              const CSymValue &Value) {
  for (const LVal &L : Cells) {
    if (L.Guard->kind() == smt::TermKind::BoolConst && L.Guard->value()) {
      // Strong update.
      State.Store.set(L.Cell, Value);
      continue;
    }
    // Morris's general axiom of assignment: conditional update of every
    // possibly-aliased cell.
    CSymValue Old = readCell(State, L.Cell);
    if (Old.kind() != Value.kind()) {
      // Type confusion through a wild pointer; overwrite outright under
      // the guard by preferring the new value.
      State.Store.set(L.Cell, Value);
      continue;
    }
    State.Store.set(L.Cell, CSymValue::ite(Terms, Cases, L.Guard, Value, Old));
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

LocId CSymExecutor::varLoc(const CIdent *Id, const CSymState &State,
                           const Frame &Frame) {
  switch (Id->nameKind()) {
  case CNameKind::Local:
    return State.Locals[Frame.Base + Id->localSlot()];
  case CNameKind::Global:
    return globalLoc(Id->global());
  case CNameKind::Function:
  case CNameKind::Unresolved:
    break;
  }
  return NoLoc;
}

bool CSymExecutor::derefSurvives(SourceLoc Loc, CSymState &State,
                                 const CSymValue &Ptr) {
  // Null-dereference check (the executor "reports an error if 0 is ever
  // dereferenced").
  ++Statistics.NullChecks;
  const Term *NullG = Ptr.nullGuard(Terms);
  if (feasibleWith(State, NullG))
    warn(Loc, "possible null dereference", &State,
         Terms.andTerm(State.Path, NullG));
  // Continue under the assumption the dereference survived.
  return assume(State, Ptr.nonNullGuard(Terms));
}

CSymExecutor::LResolveds CSymExecutor::resolveLValue(const CExpr *E,
                                                     CSymState State,
                                                     const Frame &Frame) {
  switch (E->kind()) {
  case CExprKind::Ident: {
    const auto *Id = cast<CIdent>(E);
    LocId Loc = varLoc(Id, State, Frame);
    if (Loc == NoLoc) {
      warn(E->loc(), "unknown variable '" + Id->name() + "'");
      return {};
    }
    return one(LResolved{std::move(State), one(LVal{True, {Loc}})});
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    if (U->op() != CUnaryOp::Deref)
      break;
    LResolveds Out;
    for (Flow &F : evalExpr(U->sub(), std::move(State), Frame)) {
      if (!F.Value.isPtr()) {
        warn(E->loc(), "dereference of a non-pointer value");
        continue;
      }
      if (!derefSurvives(E->loc(), F.State, F.Value))
        continue; // definitely null: this path dies here
      LResolved R{std::move(F.State), {}};
      for (const PtrCase &C : F.Value.cases())
        if (C.Target.K == PtrTarget::Kind::Object)
          R.Cells.push_back({C.Guard, {C.Target.Loc, C.Target.Field}});
      Out.push_back(std::move(R));
    }
    return Out;
  }
  case CExprKind::Member: {
    const auto *M = cast<CMember>(E);
    if (!M->isArrow()) {
      // base.field: extend the base cells' field paths.
      LResolveds Out = resolveLValue(M->base(), std::move(State), Frame);
      for (LResolved &R : Out)
        for (LVal &L : R.Cells)
          L.Cell.Field = Fields.child(L.Cell.Field, M->field());
      return Out;
    }
    // base->field: like *base, then select the field.
    LResolveds Out;
    for (Flow &F : evalExpr(M->base(), std::move(State), Frame)) {
      if (!F.Value.isPtr()) {
        warn(E->loc(), "'->' on a non-pointer value");
        continue;
      }
      if (!derefSurvives(E->loc(), F.State, F.Value))
        continue;
      LResolved R{std::move(F.State), {}};
      for (const PtrCase &C : F.Value.cases())
        if (C.Target.K == PtrTarget::Kind::Object)
          R.Cells.push_back(
              {C.Guard,
               {C.Target.Loc, Fields.child(C.Target.Field, M->field())}});
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

CSymExecutor::Flows CSymExecutor::evalExpr(const CExpr *E, CSymState State,
                                           const Frame &Frame) {
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
    return one(Flow{std::move(State), pointerTo(PtrTarget::object(Obj))});
  }
  case CExprKind::NullLit:
    return one(Flow{std::move(State), NullPtr});
  case CExprKind::Ident: {
    const auto *Id = cast<CIdent>(E);
    if (Id->nameKind() == CNameKind::Function)
      return one(Flow{std::move(State),
                      pointerTo(PtrTarget::function(Id->func()))});
    LocId Loc = varLoc(Id, State, Frame);
    if (Loc == NoLoc) {
      warn(E->loc(), "unknown variable '" + Id->name() + "'");
      return {};
    }
    CSymValue V = readCell(State, {Loc});
    return one(Flow{std::move(State), V});
  }
  case CExprKind::Unary: {
    const auto *U = cast<CUnary>(E);
    switch (U->op()) {
    case CUnaryOp::Deref: {
      Flows Out;
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
        if (!derefSurvives(E->loc(), F.State, F.Value))
          continue;
        CSymValue Acc;
        bool First = true;
        for (const PtrCase &C : F.Value.cases()) {
          if (C.Target.K != PtrTarget::Kind::Object)
            continue;
          CSymValue Next = readCell(F.State, {C.Target.Loc, C.Target.Field});
          if (First) {
            Acc = Next;
            First = false;
          } else if (Next.kind() == Acc.kind()) {
            Acc = CSymValue::ite(Terms, Cases, C.Guard, Next, Acc);
          }
        }
        if (First)
          continue; // no object target: nothing to read
        Out.push_back({std::move(F.State), Acc});
      }
      return Out;
    }
    case CUnaryOp::AddrOf: {
      Flows Out;
      for (LResolved &R :
           resolveLValue(U->sub(), std::move(State), Frame)) {
        if (R.Cells.empty())
          continue;
        PtrCase *Targets = Cases.allocate(R.Cells.size());
        for (size_t I = 0; I != R.Cells.size(); ++I)
          Targets[I] = {R.Cells[I].Guard,
                        PtrTarget::object(R.Cells[I].Cell.Loc,
                                          R.Cells[I].Cell.Field)};
        Out.push_back({std::move(R.State),
                       CSymValue::pointer({Targets, R.Cells.size()})});
      }
      return Out;
    }
    case CUnaryOp::Not: {
      Flows Out;
      for (Flow &F : evalExpr(U->sub(), std::move(State), Frame)) {
        const Term *B = Terms.notTerm(truthTerm(F.Value));
        Out.push_back({std::move(F.State), CSymValue::scalar(B)});
      }
      return Out;
    }
    case CUnaryOp::Neg: {
      Flows Out;
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
    Flows Out;
    for (Flow &L : evalExpr(B->lhs(), std::move(State), Frame)) {
      for (Flow &R : evalExpr(B->rhs(), std::move(L.State), Frame)) {
        CSymValue V = evalBinaryValues(B->op(), L.Value, R.Value);
        Out.push_back({std::move(R.State), V});
      }
    }
    return Out;
  }
  case CExprKind::Assign: {
    const auto *A = cast<CAssign>(E);
    Flows Out;
    for (LResolved &R :
         resolveLValue(A->target(), std::move(State), Frame)) {
      for (Flow &V : evalExpr(A->value(), std::move(R.State), Frame)) {
        writeCells(V.State, R.Cells, V.Value);
        Out.push_back(std::move(V));
      }
    }
    return Out;
  }
  case CExprKind::Call:
    return evalCall(cast<CCall>(E), std::move(State), Frame);
  case CExprKind::Member: {
    Flows Out;
    for (LResolved &R : resolveLValue(E, std::move(State), Frame)) {
      if (R.Cells.empty())
        continue;
      CSymValue Acc = readCell(R.State, R.Cells[0].Cell);
      for (size_t I = 1; I != R.Cells.size(); ++I) {
        CSymValue Next = readCell(R.State, R.Cells[I].Cell);
        if (Next.kind() == Acc.kind())
          Acc = CSymValue::ite(Terms, Cases, R.Cells[I].Guard, Next, Acc);
      }
      Out.push_back({std::move(R.State), Acc});
    }
    return Out;
  }
  case CExprKind::Cast: {
    const auto *C = cast<CCast>(E);
    // (T*)malloc(...): allocate an object of the cast's pointee type.
    if (const auto *Call = dyn_cast<CCall>(C->sub()))
      if (CSema::callsBuiltinMalloc(Call) && C->target()->isPointer()) {
        const CType *Pointee = C->target()->pointee();
        if (Pointee->isVoid())
          Pointee = Ctx.intType();
        LocId Obj = newObject(Pointee, "malloc@" + E->loc().str());
        return one(Flow{std::move(State), pointerTo(PtrTarget::object(Obj))});
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

CSymExecutor::Flows CSymExecutor::evalCall(const CCall *Call, CSymState State,
                                           const Frame &Frame) {
  // Bare malloc (no cast): an int-typed object.
  if (CSema::callsBuiltinMalloc(Call)) {
    LocId Obj = newObject(Ctx.intType(), "malloc@" + Call->loc().str());
    return one(Flow{std::move(State), pointerTo(PtrTarget::object(Obj))});
  }

  // Evaluate the arguments left to right, threading states. A path that
  // does not fork keeps one argument vector, reserved once.
  struct ArgState {
    CSymState State;
    std::vector<CSymValue> Args;
  };
  SmallList<ArgState> ArgStates = one(ArgState{std::move(State), {}});
  ArgStates[0].Args.reserve(Call->args().size());
  for (const CExpr *Arg : Call->args()) {
    SmallList<ArgState> Next;
    for (ArgState &AS : ArgStates) {
      Flows Fs = evalExpr(Arg, std::move(AS.State), Frame);
      size_t Left = Fs.size();
      for (Flow &F : Fs) {
        ArgState Extended{std::move(F.State), {}};
        // Only the last flow may take the vector; the others copy it.
        if (--Left == 0) {
          Extended.Args = std::move(AS.Args);
        } else {
          Extended.Args.reserve(Call->args().size());
          Extended.Args = AS.Args;
        }
        Extended.Args.push_back(F.Value);
        Next.push_back(std::move(Extended));
      }
    }
    ArgStates = std::move(Next);
  }

  Flows Out;
  const CFuncDecl *Direct = Sema.directCallee(Call);

  for (ArgState &AS : ArgStates) {
    if (Direct) {
      dispatchCall(Call, Direct, AS.Args, std::move(AS.State), Frame, Out);
      continue;
    }
    // Indirect call: evaluate the callee pointer and fork per target.
    for (Flow &F : evalExpr(Call->callee(), std::move(AS.State), Frame)) {
      if (!F.Value.isPtr()) {
        warn(Call->loc(), "call through a non-pointer value");
        continue;
      }
      bool AnyTarget = false;
      for (const PtrCase &C : F.Value.cases()) {
        SharedModel W;
        if (!feasibleWith(F.State, C.Guard, &W))
          continue;
        // A data object is not callable, so its branch would go unused.
        if (C.Target.K == PtrTarget::Kind::Object)
          continue;
        CSymState Branch = fork(F.State);
        extendPath(Branch, C.Guard, std::move(W));
        switch (C.Target.K) {
        case PtrTarget::Kind::Function:
          AnyTarget = true;
          dispatchCall(Call, C.Target.Fn, AS.Args, std::move(Branch), Frame,
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
                                Flows &Out) {
  // MIXY's frontier: MIX(typed) functions are modeled by the type system.
  if (Hook && Callee->mixAnnot() == MixAnnot::Typed) {
    CSymValue Ret;
    if (Hook->callTypedFunction(State, Call, Callee, Args, Ret)) {
      Out.push_back({std::move(State), Ret});
      return;
    }
  }

  // Nonnull annotations on parameters are checked at the call even when
  // the body is not executed (the sysutil_free(nonnull) pattern).
  for (size_t I = 0; I != Args.size() && I != Callee->params().size(); ++I) {
    const CType *ParamTy = Callee->params()[I].Ty;
    if (!ParamTy->isPointer() || ParamTy->qualifier() != QualAnnot::Nonnull ||
        !Args[I].isPtr())
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

CSymExecutor::Flows
CSymExecutor::inlineCall(const CFuncDecl *F,
                         const std::vector<CSymValue> &Args, CSymState State,
                         unsigned Depth) {
  // The callee's frame goes on top of the caller's locals and comes off
  // every path that returns.
  Frame Callee;
  Callee.Func = F;
  Callee.Depth = Depth;
  Callee.Base = (unsigned)State.Locals.size();
  State.Locals.resize(Callee.Base + F->numSlots(), NoLoc);

  for (size_t I = 0; I != F->params().size(); ++I) {
    const auto &P = F->params()[I];
    LocId Loc = newLocal(F, P.Slot, P.Ty);
    State.Locals[Callee.Base + P.Slot] = Loc;
    if (I < Args.size())
      State.Store.set({Loc}, Args[I]);
  }

  Flows Out;
  for (CSymState &S : execStmt(F->body(), std::move(State), Callee)) {
    CSymValue Ret;
    if (S.Returned)
      Ret = S.RetValue;
    else if (F->returnType()->isPointer())
      Ret = NullPtr;
    else
      Ret = CSymValue::scalar(Terms.intConst(0));
    S.Returned = false;
    S.RetValue = CSymValue();
    S.Locals.resize(Callee.Base);
    Out.push_back({std::move(S), Ret});
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
  return {std::move(State), Ret};
}

// === statements ==============================================================

CSymExecutor::Paths CSymExecutor::execStmt(const CStmt *S, CSymState State,
                                           const Frame &Frame) {
  if (State.Returned)
    return one(std::move(State));
  if (PathsThisRun > Opts.MaxPaths) {
    IncompleteThisRun = true;
    return one(std::move(State));
  }

  switch (S->kind()) {
  case CStmtKind::Expr: {
    Paths Out;
    for (Flow &F : evalExpr(cast<CExprStmt>(S)->expr(), std::move(State),
                            Frame))
      Out.push_back(std::move(F.State));
    return Out;
  }
  case CStmtKind::Decl: {
    const auto *D = cast<CDeclStmt>(S);
    LocId Loc = newLocal(Frame.Func, D->slot(), D->type());
    State.Locals[Frame.Base + D->slot()] = Loc;
    if (!D->init())
      return one(std::move(State));
    Paths Out;
    for (Flow &F : evalExpr(D->init(), std::move(State), Frame)) {
      F.State.Store.set({Loc}, F.Value);
      Out.push_back(std::move(F.State));
    }
    return Out;
  }
  case CStmtKind::If: {
    const auto *I = cast<CIfStmt>(S);
    Paths Out;
    for (Flow &F : evalExpr(I->cond(), std::move(State), Frame)) {
      const Term *Cond = truthTerm(F.Value);

      SharedModel ThenW;
      if (feasibleWith(F.State, Cond, &ThenW)) {
        ++PathsThisRun;
        ++Statistics.PathsExplored;
        CSymState Then = fork(F.State);
        extendPath(Then, Cond, std::move(ThenW));
        if (Opts.Prov)
          Then.Trail.push_back({I->cond()->loc(), "condition true"});
        execScoped(I->thenStmt(), std::move(Then), Frame, Out);
      } else {
        ++Statistics.ForksPruned;
      }

      if (assume(F.State, Terms.notTerm(Cond))) {
        ++PathsThisRun;
        ++Statistics.PathsExplored;
        CSymState Else = std::move(F.State);
        if (Opts.Prov)
          Else.Trail.push_back({I->cond()->loc(), "condition false"});
        if (I->elseStmt())
          execScoped(I->elseStmt(), std::move(Else), Frame, Out);
        else
          Out.push_back(std::move(Else));
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
    Paths Out;
    for (Flow &F : evalExpr(R->value(), std::move(State), Frame)) {
      F.State.Returned = true;
      F.State.RetValue = F.Value;
      Out.push_back(std::move(F.State));
    }
    return Out;
  }
  case CStmtKind::Block: {
    // Statement by statement over every live path; the two lists swap
    // roles, so a block allocates at most twice however long it is.
    Paths Active = one(std::move(State)), Next;
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts()) {
      Next.clear();
      for (CSymState &A : Active)
        for (CSymState &R : execStmt(Sub, std::move(A), Frame))
          Next.push_back(std::move(R));
      std::swap(Active, Next);
    }
    return Active;
  }
  }
  return one(std::move(State));
}

void CSymExecutor::execScoped(const CStmt *Body, CSymState State,
                              const Frame &Frame, Paths &Out) {
  // Within one frame only declarations change the locals, so putting the
  // entry values back ends exactly the body's declarations. A shared
  // slot (one name declared again inside) gets its outer object back.
  size_t Mark = SavedLocals.size();
  auto Begin = State.Locals.begin() + Frame.Base;
  SavedLocals.insert(SavedLocals.end(), Begin,
                     Begin + Frame.Func->numSlots());
  for (CSymState &R : execStmt(Body, std::move(State), Frame)) {
    std::copy(SavedLocals.begin() + Mark, SavedLocals.end(),
              R.Locals.begin() + Frame.Base);
    Out.push_back(std::move(R));
  }
  SavedLocals.resize(Mark);
}

CSymExecutor::Paths CSymExecutor::execWhile(const CWhileStmt *W,
                                            CSymState State,
                                            const Frame &Frame) {
  // Bounded unrolling: each round forks on the condition; paths that are
  // still looping after the bound are kept (without the exit constraint)
  // and the run is flagged incomplete.
  Paths Active = one(std::move(State)), NextActive, Exited;

  for (unsigned Round = 0; Round != Opts.LoopBound && !Active.empty();
       ++Round) {
    NextActive.clear();
    for (CSymState &A : Active) {
      if (A.Returned) {
        Exited.push_back(std::move(A));
        continue;
      }
      for (Flow &F : evalExpr(W->cond(), std::move(A), Frame)) {
        const Term *Cond = truthTerm(F.Value);
        const Term *NotCond = Terms.notTerm(Cond);
        SharedModel ExitW;
        if (feasibleWith(F.State, NotCond, &ExitW)) {
          CSymState Exit = fork(F.State);
          extendPath(Exit, NotCond, std::move(ExitW));
          if (Opts.Prov)
            Exit.Trail.push_back({W->cond()->loc(), "loop exit"});
          Exited.push_back(std::move(Exit));
        }
        if (assume(F.State, Cond)) {
          CSymState Loop = std::move(F.State);
          if (Opts.Prov)
            Loop.Trail.push_back({W->cond()->loc(), "loop iteration"});
          execScoped(W->body(), std::move(Loop), Frame, NextActive);
        }
      }
    }
    std::swap(Active, NextActive);
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
  // MIXY re-enters this executor when a typed call inside a symbolic block
  // reaches another symbolic function. The nested run gets its own path
  // budget and reports only its own cut and warnings, each of them once
  // however many paths find it; the outer run's resume when it returns.
  std::set<std::string> OuterEmitted = std::exchange(EmittedWarnings, {});
  unsigned OuterWarnings = std::exchange(WarningsThisRun, 0);
  bool OuterIncomplete = std::exchange(IncompleteThisRun, false);
  unsigned OuterPaths = std::exchange(PathsThisRun, 0);

  CSymResult Result;
  CSymState State;
  State.Path = True;
  // The empty model satisfies `true`.
  State.Witness = std::make_shared<const smt::SmtModel>();

  // Seed pointer-typed globals from the typed calling context.
  for (const auto &[Name, Seed] : GlobalSeeds) {
    const CGlobalDecl *G = Program.findGlobal(Name);
    if (!G || !G->type()->isPointer())
      continue;
    State.Store.set({globalLoc(G)}, seededPointer(G->type(), Seed, Name));
  }

  Frame Top;
  Top.Func = F;
  Top.Depth = 0;
  Top.Base = 0;
  State.Locals.assign(F->numSlots(), NoLoc);

  for (size_t I = 0; I != F->params().size(); ++I) {
    const auto &P = F->params()[I];
    LocId Loc = newLocal(F, P.Slot, P.Ty);
    State.Locals[P.Slot] = Loc;

    if (P.Ty->isPointer()) {
      NullSeed Seed;
      if (I < ParamSeeds.size())
        Seed = ParamSeeds[I];
      else if (P.Ty->qualifier() == QualAnnot::Nonnull)
        Seed = NullSeed::Nonnull;
      else
        Seed = NullSeed::MayBeNull;
      CSymValue V = seededPointer(P.Ty, Seed, F->name() + "::" + P.Name);
      LocId Pointee = NoLoc;
      for (const PtrCase &C : V.cases())
        if (C.Target.K == PtrTarget::Kind::Object)
          Pointee = C.Target.Loc;
      Result.ParamPointeeLocs.push_back(Pointee);
      Result.ParamTerms.push_back(nullptr);
      State.Store.set({Loc}, V);
    } else {
      Result.ParamPointeeLocs.push_back(NoLoc);
      const smt::Term *ParamTerm =
          Terms.freshIntVar(F->name() + "::" + P.Name);
      Result.ParamTerms.push_back(ParamTerm);
      State.Store.set({Loc}, CSymValue::scalar(ParamTerm));
    }
  }

  for (CSymState &S : execStmt(F->body(), std::move(State), Top)) {
    CSymResult::PathOut P;
    P.Path = S.Path;
    P.Returned = S.Returned;
    if (S.Returned)
      P.Ret = S.RetValue;
    P.Store = std::move(S.Store);
    Result.Paths.push_back(std::move(P));
  }
  Result.Incomplete = IncompleteThisRun;
  Result.WarningCount = WarningsThisRun;
  EmittedWarnings = std::move(OuterEmitted);
  WarningsThisRun = OuterWarnings;
  IncompleteThisRun = OuterIncomplete;
  PathsThisRun = OuterPaths;
  return Result;
}

bool CSymExecutor::mayBeNull(const Term *Path, const CSymValue &Value) {
  if (!Value.isPtr())
    return false;
  const Term *Query = Terms.andTerm(Path, Value.nullGuard(Terms));
  if (Query->kind() == smt::TermKind::BoolConst)
    return Query->value() != 0;
  return !Solver.isDefinitelyUnsat(Query);
}

std::optional<CSymValue>
CSymExecutor::finalCell(const CSymResult::PathOut &P, LocId Loc,
                        FieldId Field) {
  const CSymValue *V = P.Store.get({Loc, Field});
  if (!V)
    return std::nullopt;
  return *V;
}
