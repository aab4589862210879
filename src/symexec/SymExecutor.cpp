//===--- SymExecutor.cpp - Symbolic executor for the core language --------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "symexec/SymExecutor.h"

#include "symexec/Effects.h"
#include "symexec/MemCheck.h"

using namespace mix;

SymExecResult SymExecutor::run(const Expr *E, const SymEnv &Env,
                               SymState Init) {
  // run() re-enters through the block oracles (a typed block's checker
  // may contain symbolic blocks); each run gets its own budget, and the
  // enclosing run's counters are restored afterwards.
  unsigned SavedSteps = Steps;
  unsigned SavedLivePaths = LivePaths;
  bool SavedHitLimit = HitLimit;
  Steps = 0;
  LivePaths = 1;
  HitLimit = false;
  if (Depth == 0)
    RunBaseExprs = Arena.numExprs();
  ++Depth;

  SymExecResult Result;
  Result.Paths = exec(E, Env, Init);
  Result.ResourceLimitHit = HitLimit;

  Steps = SavedSteps;
  LivePaths = SavedLivePaths;
  HitLimit = SavedHitLimit;
  --Depth;
  CExecPaths.add(Result.Paths.size());
  if (Depth == 0)
    CTermsBuilt.add(Arena.numExprs() - RunBaseExprs);
  return Result;
}

SymExecResult SymExecutor::run(const Expr *E, const SymEnv &Env) {
  SymState Init;
  Init.Path = Arena.trueGuard();
  Init.Mem = Arena.freshBaseMemory();
  return run(E, Env, Init);
}

template <typename Fn>
std::vector<PathResult> SymExecutor::andThen(std::vector<PathResult> Outcomes,
                                             Fn Next) {
  std::vector<PathResult> Results;
  for (PathResult &O : Outcomes) {
    if (O.IsError) {
      Results.push_back(std::move(O));
      continue;
    }
    std::vector<PathResult> Rest = Next(O.State, O.Value);
    for (PathResult &R : Rest)
      Results.push_back(std::move(R));
  }
  return Results;
}

bool SymExecutor::derefMemoryOk(const SymState &S, const SymExpr *Addr) {
  MemCheckResult Check = checkMemoryOk(S.Mem);
  if (Check.Ok)
    return true;
  if (!Opts.PreciseDeref)
    return false;

  // The refinement from Section 3.1: the read is still sound if the
  // address is disequal to every inconsistent write's address.
  for (const MemNode *Bad : Check.BadWrites) {
    const SymExpr *BadAddr = Bad->address();
    if (BadAddr == Addr)
      return false; // syntactically the same cell: definitely unsafe
    // Distinct address *variables* where at least one is an allocation
    // never alias ("an allocation always creates a new location that is
    // distinct from the locations in the base unknown memory" — and from
    // every input address, which predates it). Deferred reads (Select)
    // may evaluate to any address, so they do not qualify.
    bool BothVars = BadAddr->kind() == SymKind::Var &&
                    Addr->kind() == SymKind::Var;
    if (BothVars &&
        (Arena.isAllocAddress(BadAddr) || Arena.isAllocAddress(Addr)))
      continue;
    // Otherwise ask the solver to validate the disequality under the
    // path condition.
    if (!Solver || !Translator)
      return false;
    const smt::Term *Path = Translator->translate(S.Path);
    const smt::Term *Eq = Translator->terms().eqInt(
        Translator->translate(Addr), Translator->translate(BadAddr));
    if (!Solver->isDefinitelyUnsat(Translator->terms().andTerm(Path, Eq)))
      return false;
  }
  return true;
}

std::vector<PathResult> SymExecutor::exec(const Expr *E, const SymEnv &Env,
                                          SymState S) {
  if (++Steps > Opts.MaxSteps) {
    HitLimit = true;
    return {PathResult::failure(S, E->loc(),
                                "symbolic execution step budget exceeded")};
  }

  switch (E->kind()) {
  case ExprKind::Var: {
    // SEVar: look the variable up; being unbound means the program is
    // stuck, which the executor reports as an error on this path.
    const auto *V = cast<VarExpr>(E);
    auto It = Env.find(V->name());
    if (It == Env.end())
      return {PathResult::failure(S, E->loc(),
                                  "unbound variable '" + V->name() + "'")};
    return {PathResult::success(S, It->second)};
  }
  case ExprKind::IntLit:
    // SEVal with typeof(n) = int.
    return {PathResult::success(
        S, Arena.intConst(cast<IntLitExpr>(E)->value()))};
  case ExprKind::BoolLit:
    // SEVal with typeof(true/false) = bool.
    return {PathResult::success(
        S, Arena.boolConst(cast<BoolLitExpr>(E)->value()))};
  case ExprKind::Binary:
    return execBinary(cast<BinaryExpr>(E), Env, S);
  case ExprKind::Not:
    // SENot: the operand must reduce to a guard.
    return andThen(exec(cast<NotExpr>(E)->sub(), Env, S),
                   [&](SymState S1, const SymExpr *V) -> std::vector<PathResult> {
                     if (!V->type()->isBool())
                       return {PathResult::failure(
                           S1, E->loc(),
                           "'not' applied to non-bool symbolic value of "
                           "type " +
                               V->type()->str())};
                     return {PathResult::success(S1, Arena.notG(V))};
                   });
  case ExprKind::If:
    return execIf(cast<IfExpr>(E), Env, S);
  case ExprKind::Let: {
    // SELet, with the dynamic counterpart of a type ascription.
    const auto *L = cast<LetExpr>(E);
    return andThen(exec(L->init(), Env, S),
                   [&](SymState S1, const SymExpr *V) -> std::vector<PathResult> {
                     if (L->declaredType() && V->type() != L->declaredType())
                       return {PathResult::failure(
                           S1, E->loc(),
                           "let binding declares " +
                               L->declaredType()->str() +
                               " but value has type " + V->type()->str())};
                     SymEnv Extended = Env;
                     Extended[L->name()] = V;
                     return exec(L->body(), Extended, S1);
                   });
  }
  case ExprKind::Ref:
    // SERef: allocate a fresh location alpha, log m,(alpha ->a v).
    return andThen(exec(cast<RefExpr>(E)->sub(), Env, S),
                   [&](SymState S1, const SymExpr *V) -> std::vector<PathResult> {
                     const Type *RefTy = Arena.types().refType(V->type());
                     const SymExpr *Addr =
                         Arena.freshVar(RefTy, /*IsAllocAddr=*/true);
                     SymState S2 = S1;
                     S2.Mem = Arena.alloc(S1.Mem, Addr, V);
                     return {PathResult::success(S2, Addr)};
                   });
  case ExprKind::Deref:
    // SEDeref: requires a ref-typed pointer and |- m ok (or, with the
    // PreciseDeref refinement, consistency up to provably-disequal
    // writes), then defers the read as m[u : tau ref] : tau.
    return andThen(exec(cast<DerefExpr>(E)->sub(), Env, S),
                   [&](SymState S1, const SymExpr *V) -> std::vector<PathResult> {
                     if (!V->type()->isRef())
                       return {PathResult::failure(
                           S1, E->loc(),
                           "'!' applied to non-reference symbolic value of "
                           "type " +
                               V->type()->str())};
                     if (!derefMemoryOk(S1, V))
                       return {PathResult::failure(
                           S1, E->loc(),
                           "memory is not consistently typed at "
                           "dereference (|- m ok fails)")};
                     return {PathResult::success(S1,
                                                 Arena.select(S1.Mem, V))};
                   });
  case ExprKind::Assign: {
    // SEAssign: log the write, even an ill-typed one — the m-ok check at
    // reads and block boundaries polices it later.
    const auto *A = cast<AssignExpr>(E);
    return andThen(
        exec(A->target(), Env, S),
        [&](SymState S1, const SymExpr *Target) -> std::vector<PathResult> {
          if (!Target->type()->isRef())
            return {PathResult::failure(
                S1, E->loc(),
                "':=' target is a non-reference symbolic value of type " +
                    Target->type()->str())};
          return andThen(
              exec(A->value(), Env, S1),
              [&](SymState S2, const SymExpr *V) -> std::vector<PathResult> {
                SymState S3 = S2;
                S3.Mem = Arena.update(S2.Mem, Target, V);
                return {PathResult::success(S3, V)};
              });
        });
  }
  case ExprKind::Seq: {
    const auto *Q = cast<SeqExpr>(E);
    return andThen(exec(Q->first(), Env, S),
                   [&](SymState S1, const SymExpr *) {
                     return exec(Q->second(), Env, S1);
                   });
  }
  case ExprKind::Block: {
    const auto *B = cast<BlockExpr>(E);
    if (B->blockKind() == BlockKind::Symbolic)
      return exec(B->body(), Env, S); // symbolic-in-symbolic passes through
    return execTypedBlock(B, Env, S);
  }
  case ExprKind::Fun: {
    const auto *F = cast<FunExpr>(E);
    const Type *FnTy =
        Arena.types().funType(F->paramType(), F->resultType());
    return {PathResult::success(S, Arena.closure(FnTy, F, Env))};
  }
  case ExprKind::App:
    return execApp(cast<AppExpr>(E), Env, S);
  }
  return {PathResult::failure(S, E->loc(), "unhandled expression form")};
}

std::vector<PathResult> SymExecutor::execBinary(const BinaryExpr *B,
                                                const SymEnv &Env,
                                                SymState S) {
  return andThen(
      exec(B->lhs(), Env, S),
      [&](SymState S1, const SymExpr *L) -> std::vector<PathResult> {
        return andThen(
            exec(B->rhs(), Env, S1),
            [&](SymState S2, const SymExpr *R) -> std::vector<PathResult> {
              auto Fail = [&](const char *Need) {
                return std::vector<PathResult>{PathResult::failure(
                    S2, B->loc(),
                    std::string("operator '") + binaryOpSpelling(B->op()) +
                        "' applied to " + L->type()->str() + " and " +
                        R->type()->str() + " (needs " + Need + ")")};
              };
              switch (B->op()) {
              case BinaryOp::Add:
                // SEPlus: both operands must be symbolic integers.
                if (!L->type()->isInt() || !R->type()->isInt())
                  return Fail("int operands");
                return {PathResult::success(S2, Arena.add(L, R))};
              case BinaryOp::Sub:
                if (!L->type()->isInt() || !R->type()->isInt())
                  return Fail("int operands");
                return {PathResult::success(S2, Arena.sub(L, R))};
              case BinaryOp::Lt:
                if (!L->type()->isInt() || !R->type()->isInt())
                  return Fail("int operands");
                return {PathResult::success(S2, Arena.lt(L, R))};
              case BinaryOp::Le:
                if (!L->type()->isInt() || !R->type()->isInt())
                  return Fail("int operands");
                return {PathResult::success(S2, Arena.le(L, R))};
              case BinaryOp::Eq:
                // SEEq: operands of equal base type.
                if (L->type() != R->type() ||
                    !(L->type()->isInt() || L->type()->isBool()))
                  return Fail("two ints or two bools");
                return {PathResult::success(S2, Arena.eq(L, R))};
              case BinaryOp::And:
                // SEAnd: both operands must be guards.
                if (!L->type()->isBool() || !R->type()->isBool())
                  return Fail("bool operands");
                return {PathResult::success(S2, Arena.andG(L, R))};
              case BinaryOp::Or:
                if (!L->type()->isBool() || !R->type()->isBool())
                  return Fail("bool operands");
                return {PathResult::success(S2, Arena.orG(L, R))};
              }
              return Fail("supported operator");
            });
      });
}

bool SymExecutor::concreteTruth(const SymExpr *Guard) const {
  switch (Guard->kind()) {
  case SymKind::BoolConst:
    return Guard->boolValue();
  case SymKind::Var: {
    if (!Seed)
      return false;
    auto It = Seed->BoolVars.find(Guard->varId());
    return It != Seed->BoolVars.end() && It->second;
  }
  case SymKind::Eq: {
    const SymExpr *L = Guard->operand(0);
    if (L->type()->isBool())
      return concreteTruth(L) == concreteTruth(Guard->operand(1));
    return concreteInt(L) == concreteInt(Guard->operand(1));
  }
  case SymKind::Lt:
    return concreteInt(Guard->operand(0)) < concreteInt(Guard->operand(1));
  case SymKind::Le:
    return concreteInt(Guard->operand(0)) <= concreteInt(Guard->operand(1));
  case SymKind::Not:
    return !concreteTruth(Guard->operand(0));
  case SymKind::And:
    return concreteTruth(Guard->operand(0)) &&
           concreteTruth(Guard->operand(1));
  case SymKind::Or:
    return concreteTruth(Guard->operand(0)) ||
           concreteTruth(Guard->operand(1));
  case SymKind::Ite:
    return concreteTruth(Guard->operand(0))
               ? concreteTruth(Guard->operand(1))
               : concreteTruth(Guard->operand(2));
  case SymKind::Select: {
    if (!Seed)
      return false;
    auto It = Seed->BoolSelects.find(Guard);
    return It != Seed->BoolSelects.end() && It->second;
  }
  default:
    return false;
  }
}

long long SymExecutor::concreteInt(const SymExpr *E) const {
  switch (E->kind()) {
  case SymKind::IntConst:
    return E->intValue();
  case SymKind::Var: {
    if (!Seed)
      return 0;
    auto It = Seed->IntVars.find(E->varId());
    return It == Seed->IntVars.end() ? 0 : It->second;
  }
  case SymKind::Add:
    return concreteInt(E->operand(0)) + concreteInt(E->operand(1));
  case SymKind::Sub:
    return concreteInt(E->operand(0)) - concreteInt(E->operand(1));
  case SymKind::Ite:
    return concreteTruth(E->operand(0)) ? concreteInt(E->operand(1))
                                        : concreteInt(E->operand(2));
  case SymKind::Select: {
    if (!Seed)
      return 0;
    auto It = Seed->IntSelects.find(E);
    return It == Seed->IntSelects.end() ? 0 : It->second;
  }
  default:
    return 0;
  }
}

std::vector<PathResult> SymExecutor::execIfConcolic(const IfExpr *I,
                                                    const SymEnv &Env,
                                                    SymState S,
                                                    const SymExpr *Guard) {
  // The DART/CUTE style: "continue down one path as guided by an
  // underlying concrete run". The taken signed guard is recorded so the
  // driver can negate it later.
  bool TakeThen = concreteTruth(Guard);
  const SymExpr *Signed = TakeThen ? Guard : Arena.notG(Guard);
  SymState Next = std::move(S);
  Next.Path = Arena.andG(Next.Path, Signed);
  Next.Decisions.push_back(Signed);
  if (Opts.Prov)
    Next.Trail.push_back({I->cond()->loc(),
                          TakeThen ? "condition true" : "condition false"});
  return exec(TakeThen ? I->thenExpr() : I->elseExpr(), Env, Next);
}

std::vector<PathResult> SymExecutor::execIf(const IfExpr *I, const SymEnv &Env,
                                            SymState S) {
  if (Opts.Strat == SymExecOptions::Strategy::Defer)
    return execIfDefer(I, Env, S);

  // SEIf-True / SEIf-False: fork, extending the path condition with the
  // guard or its negation. Constant guards take only their branch (the
  // partial-evaluation special case the paper mentions).
  return andThen(
      exec(I->cond(), Env, S),
      [&](SymState S1, const SymExpr *G) -> std::vector<PathResult> {
        if (!G->type()->isBool())
          return {PathResult::failure(S1, I->cond()->loc(),
                                      "condition has non-bool type " +
                                          G->type()->str())};
        if (G->isConst()) {
          // Partial evaluation: a concrete guard takes one branch and
          // never consults the solver.
          CBranchesConc.inc();
          return exec(G->boolValue() ? I->thenExpr() : I->elseExpr(), Env,
                      S1);
        }
        if (Opts.Strat == SymExecOptions::Strategy::Concolic)
          return execIfConcolic(I, Env, std::move(S1), G);

        std::vector<PathResult> Results;
        ++LivePaths;
        CForks.inc();
        if (Opts.Trace)
          Opts.Trace->instant("sym.fork", "sym");
        if (LivePaths > Opts.MaxPaths) {
          HitLimit = true;
          return {PathResult::failure(S1, I->loc(),
                                      "path budget exceeded at conditional")};
        }

        SymState ThenState = S1;
        ThenState.Path = Arena.andG(ThenState.Path, G);
        if (Opts.Prov)
          ThenState.Trail.push_back({I->cond()->loc(), "condition true"});
        for (PathResult &R : exec(I->thenExpr(), Env, ThenState))
          Results.push_back(std::move(R));

        SymState ElseState = S1;
        ElseState.Path = Arena.andG(ElseState.Path, Arena.notG(G));
        if (Opts.Prov)
          ElseState.Trail.push_back({I->cond()->loc(), "condition false"});
        for (PathResult &R : exec(I->elseExpr(), Env, ElseState))
          Results.push_back(std::move(R));
        return Results;
      });
}

std::vector<PathResult> SymExecutor::execIfDefer(const IfExpr *I,
                                                 const SymEnv &Env,
                                                 SymState S) {
  // SEIf-Defer: run both branches under extended guards, then merge
  // values, path conditions, and memories with conditional expressions.
  // The rule requires both branches to produce the same type.
  return andThen(
      exec(I->cond(), Env, S),
      [&](SymState S1, const SymExpr *G) -> std::vector<PathResult> {
        if (!G->type()->isBool())
          return {PathResult::failure(S1, I->cond()->loc(),
                                      "condition has non-bool type " +
                                          G->type()->str())};
        if (G->isConst()) {
          CBranchesConc.inc();
          return exec(G->boolValue() ? I->thenExpr() : I->elseExpr(), Env,
                      S1);
        }

        CDefers.inc();
        if (Opts.Trace)
          Opts.Trace->instant("sym.defer", "sym");

        SymState ThenState = S1;
        ThenState.Path = Arena.andG(ThenState.Path, G);
        SymState ElseState = S1;
        ElseState.Path = Arena.andG(ElseState.Path, Arena.notG(G));
        if (Opts.Prov) {
          ThenState.Trail.push_back(
              {I->cond()->loc(), "condition true (deferred)"});
          ElseState.Trail.push_back(
              {I->cond()->loc(), "condition false (deferred)"});
        }

        std::vector<PathResult> ThenOuts =
            exec(I->thenExpr(), Env, ThenState);
        std::vector<PathResult> ElseOuts =
            exec(I->elseExpr(), Env, ElseState);

        // Errors on either side surface as errors under their own guard;
        // success pairs merge into a single deferred outcome.
        std::vector<PathResult> Results;
        for (PathResult &T : ThenOuts)
          if (T.IsError)
            Results.push_back(std::move(T));
        for (PathResult &F : ElseOuts)
          if (F.IsError)
            Results.push_back(std::move(F));

        for (const PathResult &T : ThenOuts) {
          if (T.IsError)
            continue;
          for (const PathResult &F : ElseOuts) {
            if (F.IsError)
              continue;
            if (T.Value->type() != F.Value->type()) {
              Results.push_back(PathResult::failure(
                  S1, I->loc(),
                  "SEIf-Defer requires both branches to have the same "
                  "type, got " +
                      T.Value->type()->str() + " vs " +
                      F.Value->type()->str()));
              continue;
            }
            SymState Merged;
            Merged.Path = Arena.ite(G, T.State.Path, F.State.Path);
            Merged.Mem = Arena.iteMem(G, T.State.Mem, F.State.Mem);
            if (Opts.Prov) {
              Merged.Trail = S1.Trail;
              Merged.Trail.push_back(
                  {I->cond()->loc(), "branches merged (defer)"});
            }
            Results.push_back(PathResult::success(
                Merged, Arena.ite(G, T.Value, F.Value)));
          }
        }
        return Results;
      });
}

std::vector<PathResult> SymExecutor::execApp(const AppExpr *A,
                                             const SymEnv &Env, SymState S) {
  return andThen(
      exec(A->fn(), Env, S),
      [&](SymState S1, const SymExpr *Fn) -> std::vector<PathResult> {
        if (!Fn->type()->isFun())
          return {PathResult::failure(S1, A->loc(),
                                      "application of non-function symbolic "
                                      "value of type " +
                                          Fn->type()->str())};
        if (Fn->kind() != SymKind::Closure)
          // The analogue of Otter's limited support for symbolic function
          // pointers (Section 4.5, Case 4): a function value with no known
          // body cannot be executed. Wrapping the call in a typed block is
          // the paper's remedy.
          return {PathResult::failure(
              S1, A->loc(),
              "cannot symbolically execute a call through a symbolic "
              "function value; wrap the call in a typed block")};
        return andThen(
            exec(A->arg(), Env, S1),
            [&](SymState S2, const SymExpr *Arg) -> std::vector<PathResult> {
              const FunExpr *F = Arena.closureFun(Fn);
              if (Arg->type() != F->paramType())
                return {PathResult::failure(
                    S2, A->loc(),
                    "argument has type " + Arg->type()->str() +
                        " but function expects " + F->paramType()->str())};
              SymEnv CalleeEnv = Arena.closureEnv(Fn);
              CalleeEnv[F->param()] = Arg;
              return andThen(
                  exec(F->body(), CalleeEnv, S2),
                  [&](SymState S3,
                      const SymExpr *Ret) -> std::vector<PathResult> {
                    if (Ret->type() != F->resultType())
                      return {PathResult::failure(
                          S3, A->loc(),
                          "function body produced " + Ret->type()->str() +
                              " but declares result type " +
                              F->resultType()->str())};
                    return {PathResult::success(S3, Ret)};
                  });
            });
      });
}

std::vector<PathResult> SymExecutor::execTypedBlock(const BlockExpr *B,
                                                    const SymEnv &Env,
                                                    SymState S) {
  // SETypBlock (Figure 4): |- Sigma : Gamma, |- m ok, Gamma |- e : tau;
  // the block evaluates to a fresh alpha : tau and memory is havocked to
  // a fresh mu' (the typed code may have made arbitrary well-typed
  // writes).
  if (!TypedOracle)
    return {PathResult::failure(S, B->loc(),
                                "typed block is not allowed here (no type "
                                "checker attached)")};
  if (!checkMemoryOk(S.Mem).Ok)
    return {PathResult::failure(S, B->loc(),
                                "memory is not consistently typed at typed "
                                "block entry (|- m ok fails)")};
  const Type *Tau = TypedOracle->typeOfTypedBlock(B, Env, S);
  if (!Tau)
    return {PathResult::failure(S, B->loc(),
                                "typed block failed to type check")};
  SymState S1 = S;
  S1.Mem = havocForTypedBlock(B, Env, S.Mem);
  const SymExpr *Result = Arena.freshVar(Tau);
  // Refinement-typed oracles can constrain the fresh result (e.g. a
  // `pos int` block result satisfies alpha > 0).
  if (const SymExpr *Guard =
          TypedOracle->refineTypedBlockResult(B, Result, Arena)) {
    assert(Guard->type()->isBool() && "refinement guard must be boolean");
    S1.Path = Arena.andG(S1.Path, Guard);
  }
  return {PathResult::success(S1, Result)};
}

const MemNode *SymExecutor::havocForTypedBlock(const BlockExpr *B,
                                               const SymEnv &Env,
                                               const MemNode *Mem) {
  CHavocs.inc();
  if (Opts.Trace)
    Opts.Trace->instant("sym.havoc", "sym");
  if (Opts.Havoc == SymExecOptions::HavocPolicy::FullMemory)
    // The paper's rule: "we conservatively set the memory of the output
    // state to a fresh mu'".
    return Arena.freshBaseMemory();

  // The Section 3.2 effect refinement: havoc only what the block can
  // write. Unknown effects (computed targets, applications) fall back to
  // the full havoc.
  WriteEffects Effects = computeWriteEffects(B->body());
  if (Effects.MayWriteUnknown)
    return Arena.freshBaseMemory();

  const MemNode *Result = Mem;
  for (const std::string &Name : Effects.Vars) {
    auto It = Env.find(Name);
    if (It == Env.end())
      continue; // unbound: the type checker will have rejected the block
    const SymExpr *Target = It->second;
    if (!Target->type()->isRef())
      continue; // ill-typed write: ditto
    // The typed code may have stored any well-typed value there.
    Result = Arena.update(Result, Target,
                          Arena.freshVar(Target->type()->pointee()));
  }
  return Result;
}
