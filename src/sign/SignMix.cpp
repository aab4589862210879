//===--- SignMix.cpp - Mix rules for the sign-qualifier system --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "sign/SignMix.h"

#include "symexec/MemCheck.h"

using namespace mix;

SignMixChecker::SignMixChecker(TypeContext &PlainTypes,
                               DiagnosticEngine &Diags, MixOptions Opts)
    : PlainTypes(PlainTypes), Diags(Diags), Opts(Opts), STypes(PlainTypes),
      Syms(PlainTypes), Solver(Terms, Opts.Smt), Translator(Syms, Terms),
      Checker(STypes, Diags),
      Executor(Syms, Diags, Opts.Exec),
      Eng(engineConfig(Opts)) {
  Checker.setSymBlockOracle(this);
  Executor.setTypedBlockOracle(this);
  Executor.setSolver(&Solver, &Translator);
}

SignMixChecker::Engine::Config
SignMixChecker::engineConfig(const MixOptions &O) {
  Engine::Config C;
  C.Metrics = O.Metrics;
  return C;
}

std::string SignMixChecker::signSig(const SignEnv &Gamma) {
  // SignEnv is an ordered map, so iteration (and the signature) is
  // deterministic.
  std::string Sig;
  for (const auto &[Name, S] : Gamma) {
    Sig += Name;
    Sig += ':';
    Sig += S->str();
    Sig += ';';
  }
  return Sig;
}

const SType *SignMixChecker::checkTyped(const Expr *E,
                                        const SignEnv &Gamma) {
  return Checker.check(E, Gamma);
}

const SType *SignMixChecker::checkSymbolic(const Expr *E,
                                           const SignEnv &Gamma) {
  ++Statistics.SymBlocksChecked;
  return checkSymbolicCore(E, Gamma, E->loc());
}

const SymExpr *SignMixChecker::signGuard(const SymExpr *Value, SignQual Q) {
  switch (Q) {
  case SignQual::Pos:
    return Syms.lt(Syms.intConst(0), Value);
  case SignQual::Zero:
    return Syms.eq(Value, Syms.intConst(0));
  case SignQual::Neg:
    return Syms.lt(Value, Syms.intConst(0));
  case SignQual::Unknown:
    return nullptr;
  }
  return nullptr;
}

SignQual SignMixChecker::signUnderPath(const SymExpr *Path,
                                       const SymExpr *Value) {
  const smt::Term *PathT = Translator.translate(Path);
  const smt::Term *ValueT = Translator.translate(Value);
  auto Valid = [&](const smt::Term *Prop) {
    return Solver.isDefinitelyValid(Terms.implies(PathT, Prop));
  };
  if (Valid(Terms.lt(Terms.intConst(0), ValueT)))
    return SignQual::Pos;
  if (Valid(Terms.eqInt(ValueT, Terms.intConst(0))))
    return SignQual::Zero;
  if (Valid(Terms.lt(ValueT, Terms.intConst(0))))
    return SignQual::Neg;
  return SignQual::Unknown;
}

bool SignMixChecker::verifyClosure(const SymExpr *Closure, SourceLoc Loc) {
  // Memoized in the engine's typed cache per closure value (failures
  // included, so a bad closure is reported once); a cyclic
  // re-verification hits the Section 4.4 stack cut-off and answers with
  // the assumption that the annotation holds.
  Engine::Key K{Closure, std::string()};
  engine::RunHooks<const SType *> H;
  H.Init = [&]() -> const SType * { return STypes.lift(Closure->type()); };
  H.Eval = [&]() -> const SType * {
    SignEnv Gamma;
    for (const auto &[Name, Captured] : Syms.closureEnv(Closure))
      Gamma[Name] = STypes.lift(Captured->type());
    if (const SType *S = Checker.check(Syms.closureFun(Closure), Gamma))
      return S;
    Diags.error(Loc,
                "function value escapes its symbolic block, so its "
                "body must sign-check on all inputs",
                DiagID::EscapedClosure);
    return nullptr;
  };
  // A failed check cannot improve by re-running.
  H.KeepIterating = [](const SType *S) { return S != nullptr; };
  return Eng.runTyped(K, H) != nullptr;
}

bool SignMixChecker::verifyEscapingClosures(const SymExpr *Value,
                                            const MemNode *Mem,
                                            SourceLoc Loc) {
  std::vector<const SymExpr *> Closures;
  Syms.collectClosures(Value, Closures);
  Syms.collectClosuresInMemory(Mem, Closures);
  for (const SymExpr *C : Closures)
    if (!verifyClosure(C, Loc))
      return false;
  return true;
}

const SType *SignMixChecker::checkSymbolicCore(const Expr *Body,
                                               const SignEnv &Gamma,
                                               SourceLoc Loc) {
  // TSymBlock-sign: Sigma maps each x to alpha_x : erase(Gamma(x)), and —
  // the sign twist — the initial path condition encodes Gamma's
  // qualifiers (alpha_x > 0 for pos int inputs, the initial contents of
  // sign-qualified reference cells likewise).
  SymEnv Env;
  const SymExpr *InitPath = Syms.trueGuard();
  SymState Init;
  Init.Mem = Syms.freshBaseMemory();
  std::map<const SymExpr *, SignQual> SignedRefs;
  for (const auto &[Name, S] : Gamma) {
    const SymExpr *Alpha =
        Syms.freshVar(STypes.erase(S), /*IsAllocAddr=*/false, Name);
    Env[Name] = Alpha;
    if (S->isInt()) {
      if (const SymExpr *G = signGuard(Alpha, S->sign()))
        InitPath = Syms.andG(InitPath, G);
    } else if (S->isRef() && S->pointee()->isInt() &&
               S->pointee()->sign() != SignQual::Unknown) {
      // The cell's current contents have the annotated sign...
      if (const SymExpr *G =
              signGuard(Syms.select(Init.Mem, Alpha), S->pointee()->sign()))
        InitPath = Syms.andG(InitPath, G);
      // ... and writes to it must preserve that sign (checked at exit).
      SignedRefs[Alpha] = S->pointee()->sign();
    }
  }

  Init.Path = InitPath;

  // Refinement guards asserted by nested typed blocks belong to this
  // run; nested runs (through re-entrant blocks) get their own frame.
  std::vector<const SymExpr *> SavedAxioms = std::move(RefinementAxioms);
  RefinementAxioms.clear();
  SymExecResult Result = Executor.run(Body, Env, Init);
  std::vector<const SymExpr *> Axioms = std::move(RefinementAxioms);
  RefinementAxioms = std::move(SavedAxioms);

  Statistics.PathsExplored += (unsigned)Result.Paths.size();

  if (Result.ResourceLimitHit) {
    Diags.error(Loc,
                "symbolic block exceeded the execution budget; "
                "cannot establish exhaustiveness",
                DiagID::ExecBudget);
    return nullptr;
  }

  std::vector<const PathResult *> Live;
  for (const PathResult &P : Result.Paths) {
    if (Solver.isDefinitelyUnsat(Translator.translate(P.State.Path))) {
      ++Statistics.InfeasiblePathsDiscarded;
      continue;
    }
    if (P.IsError) {
      Diags.error(P.ErrorLoc.isValid() ? P.ErrorLoc : Loc,
                  P.ErrorMessage + " [on path " + P.State.Path->str() + "]",
                  DiagID::SymExecError);
      return nullptr;
    }
    Live.push_back(&P);
  }

  if (Live.empty()) {
    Diags.error(Loc, "symbolic block has no feasible path",
                DiagID::NoFeasiblePath);
    return nullptr;
  }

  // Base types must agree across paths.
  const Type *Tau = Live.front()->Value->type();
  for (const PathResult *P : Live) {
    if (P->Value->type() != Tau) {
      Diags.error(Loc, "symbolic block paths disagree on the result type",
                  DiagID::ResultTypeMismatch);
      return nullptr;
    }
  }

  for (const PathResult *P : Live)
    if (!verifyEscapingClosures(P->Value, P->State.Mem, Loc))
      return nullptr;

  if (Opts.CheckFinalMemory) {
    for (const PathResult *P : Live) {
      if (!checkMemoryOk(P->State.Mem).Ok) {
        Diags.error(Loc,
                    "symbolic block leaves memory inconsistently "
                    "typed on some path (|- m ok fails)",
                    DiagID::MemoryInconsistent);
        return nullptr;
      }
      if (!checkSignedMemory(SignedRefs, P->State.Mem, P->State.Path, Loc))
        return nullptr;
    }
  }

  // exhaustive() relative to the initial constraint and the refinement
  // axioms: Gamma's qualifiers restrict the inputs and each typed block's
  // result sign was *proved* by the checker, so the obligation is
  // (InitPath /\ Axioms) => (g_1 \/ ... \/ g_n).
  if (Opts.Exhaustive == MixOptions::Exhaustiveness::Require) {
    ++Statistics.ExhaustivenessChecks;
    std::vector<const smt::Term *> Guards;
    for (const PathResult *P : Live)
      Guards.push_back(Translator.translate(P->State.Path));
    const smt::Term *Antecedent = Translator.translate(InitPath);
    for (const SymExpr *Axiom : Axioms)
      Antecedent = Terms.andTerm(Antecedent, Translator.translate(Axiom));
    const smt::Term *Obligation =
        Terms.implies(Antecedent, Terms.orList(Guards));
    if (!Solver.isDefinitelyValid(Obligation)) {
      Diags.error(Loc, "symbolic block paths are not exhaustive",
                  DiagID::PathsNotExhaustive);
      return nullptr;
    }
  }

  // The mix payoff: recover each path's result sign from the solver and
  // join — "we use the SMT solver to discover the possible final values
  // ... and translate those to the appropriate types" (Section 4.1, in
  // sign clothing).
  if (Tau->isInt()) {
    SignQual Q = signUnderPath(Live.front()->State.Path,
                               Live.front()->Value);
    for (size_t I = 1; I != Live.size(); ++I)
      Q = joinSign(Q, signUnderPath(Live[I]->State.Path, Live[I]->Value));
    return STypes.intType(Q);
  }
  return STypes.lift(Tau);
}

const SType *SignMixChecker::stypeOfSymbolicBlock(const BlockExpr *Block,
                                                  const SignEnv &Gamma) {
  // Counts boundary-rule applications, cached or not.
  ++Statistics.SymBlocksChecked;
  Engine::Key K{Block, signSig(Gamma)};
  engine::RunHooks<const SType *> H;
  H.Eval = [&] {
    return checkSymbolicCore(Block->body(), Gamma, Block->loc());
  };
  // Failures reported diagnostics; re-diagnose instead of replaying null.
  H.ShouldCache = [](const SType *S) { return S != nullptr; };
  H.KeepIterating = [](const SType *S) { return S != nullptr; };
  return Eng.runSymbolic(K, H);
}

const Type *SignMixChecker::typeOfTypedBlock(const BlockExpr *Block,
                                             const SymEnv &Env,
                                             const SymState &State) {
  ++Statistics.TypedBlocksExecuted;

  for (const auto &[Name, Value] : Env)
    if (!verifyEscapingClosures(Value, nullptr, Block->loc()))
      return nullptr;
  if (!verifyEscapingClosures(nullptr, State.Mem, Block->loc()))
    return nullptr;

  // |- Sigma : Gamma, sharpened: for int-typed symbols, ask the solver
  // what the path condition forces — this is how "the type system will
  // start with the appropriate type for x, either pos, zero, or neg int".
  SignEnv Gamma;
  for (const auto &[Name, Value] : Env) {
    if (Value->type()->isInt())
      Gamma[Name] = STypes.intType(signUnderPath(State.Path, Value));
    else
      Gamma[Name] = STypes.lift(Value->type());
  }

  Engine::Key K{Block, signSig(Gamma)};
  engine::RunHooks<const SType *> H;
  // A cache hit must still publish the result sign so
  // refineTypedBlockResult refines the continuing execution.
  H.OnCacheHit = [&](const SType *S) { TypedBlockResults[Block] = S; };
  H.Eval = [&] { return Checker.check(Block->body(), Gamma); };
  H.ShouldCache = [](const SType *S) { return S != nullptr; };
  H.KeepIterating = [](const SType *S) { return S != nullptr; };
  const SType *S = Eng.runTyped(K, H);
  if (!S)
    return nullptr;
  TypedBlockResults[Block] = S;
  return STypes.erase(S);
}

const SymExpr *SignMixChecker::refineTypedBlockResult(const BlockExpr *Block,
                                                      const SymExpr *ResultVar,
                                                      SymArena &Arena) {
  auto It = TypedBlockResults.find(Block);
  if (It == TypedBlockResults.end() || !It->second->isInt())
    return nullptr;
  (void)Arena; // signGuard builds in our own arena, which is the same one
  const SymExpr *Guard = signGuard(ResultVar, It->second->sign());
  if (Guard)
    // The checker proved the sign, so the guard is an axiom the
    // exhaustiveness obligation may assume.
    RefinementAxioms.push_back(Guard);
  return Guard;
}

bool SignMixChecker::checkSignedMemory(
    const std::map<const SymExpr *, SignQual> &SignedRefs,
    const MemNode *Mem, const SymExpr *Path, SourceLoc Loc) {
  if (SignedRefs.empty())
    return true;
  while (Mem) {
    switch (Mem->kind()) {
    case MemKind::Base:
      return true;
    case MemKind::Ite:
      return checkSignedMemory(SignedRefs, Mem->thenMemory(), Path, Loc) &&
             checkSignedMemory(SignedRefs, Mem->elseMemory(), Path, Loc);
    case MemKind::Alloc:
      // Fresh allocations cannot alias Gamma's cells.
      Mem = Mem->previous();
      continue;
    case MemKind::Update: {
      const SymExpr *Addr = Mem->address();
      auto It = SignedRefs.find(Addr);
      if (It != SignedRefs.end()) {
        // A definite write to a sign-qualified cell: the stored value's
        // sign must refine the annotation under this path.
        if (!Mem->value()->type()->isInt() ||
            !signSubtype(signUnderPath(Path, Mem->value()), It->second)) {
          Diags.error(Loc,
                      "write to a " +
                          std::string(signQualName(It->second)) +
                          " int cell may violate its sign qualifier",
                      DiagID::SignError);
          return false;
        }
      } else if (!Syms.isAllocAddress(Addr)) {
        // A write through a pointer that may alias a qualified cell:
        // conservatively require the value to satisfy every qualifier it
        // could reach. (Allocation addresses never alias Gamma's cells.)
        for (const auto &[RefAddr, Q] : SignedRefs) {
          (void)RefAddr;
          if (!Mem->value()->type()->isInt() ||
              !signSubtype(signUnderPath(Path, Mem->value()), Q)) {
            Diags.error(Loc,
                        "write through an unresolved pointer may "
                        "violate a sign qualifier",
                        DiagID::SignError);
            return false;
          }
        }
      }
      Mem = Mem->previous();
      continue;
    }
    }
  }
  return true;
}
