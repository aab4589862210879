//===--- MixChecker.cpp - The MIX analysis driver --------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mix/MixChecker.h"

#include "mix/ConcolicDriver.h"
#include "symexec/MemCheck.h"

using namespace mix;

/// Pushes the checker-level observability sinks down into the nested
/// option structs so the solver and executor report into the same
/// registry/trace.
static MixOptions normalizedOptions(MixOptions O) {
  O.Smt.Metrics = O.Metrics;
  O.Smt.Trace = O.Trace;
  O.Smt.Telemetry = O.Telemetry;
  O.Exec.Metrics = O.Metrics;
  O.Exec.Trace = O.Trace;
  O.Exec.Prov = O.Prov;
  return O;
}

MixChecker::MixChecker(TypeContext &Types, DiagnosticEngine &Diags,
                       MixOptions OptsIn)
    : Types(Types), Diags(Diags), Opts(normalizedOptions(OptsIn)), Syms(Types),
      Solver(smt::createBackend(Opts.Solver.Backend, Terms, Opts.Smt)),
      Translator(Syms, Terms), Checker(Types, Diags),
      Executor(Syms, Diags, executorOptionsFor(Opts)),
      Eng(engineConfig(Opts)) {
  Checker.setSymBlockOracle(this);
  Executor.setTypedBlockOracle(this);
  assert(Solver && "unknown solver backend (validate the SolverSpec with "
                   "parseSolverBackend before constructing)");
  Executor.setSolver(Solver.get(), &Translator);
  if (Opts.Metrics) {
    CSymBlocks = Opts.Metrics->counter("mix.sym_blocks_checked");
    CTypedBlocks = Opts.Metrics->counter("mix.typed_blocks_executed");
    CPaths = Opts.Metrics->counter("mix.paths_explored");
    CInfeasible = Opts.Metrics->counter("mix.paths_infeasible");
    CExhaustive = Opts.Metrics->counter("mix.exhaustiveness_checks");
  }
}

MixChecker::Engine::Config MixChecker::engineConfig(const MixOptions &O) {
  Engine::Config C;
  C.Metrics = O.Metrics;
  return C;
}

std::string MixChecker::gammaSig(const TypeEnv &Gamma) {
  // TypeEnv is an ordered map, so iteration (and hence the signature) is
  // deterministic.
  std::string Sig;
  for (const auto &[Name, Ty] : Gamma) {
    Sig += Name;
    Sig += ':';
    Sig += Ty->str();
    Sig += ';';
  }
  return Sig;
}

SymExecOptions MixChecker::executorOptionsFor(const MixOptions &Opts) {
  SymExecOptions E = Opts.Exec;
  // Under concolic exploration the driver owns path enumeration; the
  // executor follows one concrete run at a time.
  if (Opts.Explore == MixOptions::Exploration::Concolic)
    E.Strat = SymExecOptions::Strategy::Concolic;
  return E;
}

const Type *MixChecker::checkTyped(const Expr *E, const TypeEnv &Gamma) {
  return Checker.check(E, Gamma);
}

const Type *MixChecker::checkSymbolic(const Expr *E, const TypeEnv &Gamma) {
  return checkSymbolicCore(E, Gamma, E->loc());
}

const Type *MixChecker::typeOfSymbolicBlock(const BlockExpr *Block,
                                            const TypeEnv &Gamma) {
  // Counts boundary-rule applications, cached or not (a hit still means
  // the rule fired at this site).
  ++Statistics.SymBlocksChecked;
  CSymBlocks.inc();
  Engine::Key K{Block, gammaSig(Gamma)};
  engine::RunHooks<const Type *> H;
  H.Eval = [&] {
    return checkSymbolicCore(Block->body(), Gamma, Block->loc());
  };
  // Failures reported diagnostics; re-diagnose on later calls instead of
  // silently replaying null.
  H.ShouldCache = [](const Type *T) { return T != nullptr; };
  H.KeepIterating = [](const Type *T) { return T != nullptr; };
  return Eng.runSymbolic(K, H);
}

const Type *MixChecker::typeOfTypedBlock(const BlockExpr *Block,
                                         const SymEnv &Env,
                                         const SymState &State) {
  ++Statistics.TypedBlocksExecuted;
  CTypedBlocks.inc();
  obs::PhaseTimer Timer(Opts.Telemetry, obs::Phase::BlockExec);
  obs::TraceSpan Span(Opts.Trace, "mix.block.typed", "mix");
  // Closures entering the typed world through Sigma or memory are
  // trusted at their arrow types; verify their bodies first.
  for (const auto &[Name, Value] : Env)
    if (!verifyEscapingClosures(Value, nullptr, Block->loc()))
      return nullptr;
  if (!verifyEscapingClosures(nullptr, State.Mem, Block->loc()))
    return nullptr;

  // |- Sigma : Gamma — every variable's type is the type annotation of
  // the symbolic value it is bound to.
  TypeEnv Gamma;
  for (const auto &[Name, Value] : Env)
    Gamma[Name] = Value->type();

  Engine::Key K{Block, gammaSig(Gamma)};
  engine::RunHooks<const Type *> H;
  H.Eval = [&] { return Checker.check(Block->body(), Gamma); };
  H.ShouldCache = [](const Type *T) { return T != nullptr; };
  H.KeepIterating = [](const Type *T) { return T != nullptr; };
  return Eng.runTyped(K, H);
}

bool MixChecker::verifyClosure(const SymExpr *Closure, SourceLoc Loc) {
  // Memoized in the engine's typed cache, keyed per closure value
  // (failures included, so a bad closure is reported once). A cyclic
  // re-verification — the type checker can re-enter via nested blocks —
  // hits the Section 4.4 stack cut-off and answers with the assumption
  // that the closure's annotation holds.
  Engine::Key K{Closure, std::string()};
  engine::RunHooks<const Type *> H;
  H.Init = [&]() -> const Type * { return Closure->type(); };
  H.Eval = [&]() -> const Type * {
    const FunExpr *Fun = Syms.closureFun(Closure);
    TypeEnv Gamma;
    for (const auto &[Name, Captured] : Syms.closureEnv(Closure))
      Gamma[Name] = Captured->type();
    if (Checker.check(Fun, Gamma))
      return Closure->type();
    Diags.error(Loc,
                "function value escapes its symbolic block, so its "
                "body must type check on all inputs",
                DiagID::EscapedClosure);
    return nullptr;
  };
  // A failed check cannot improve by re-running with a weaker assumption.
  H.KeepIterating = [](const Type *T) { return T != nullptr; };
  return Eng.runTyped(K, H) != nullptr;
}

bool MixChecker::verifyEscapingClosures(const SymExpr *Value,
                                        const MemNode *Mem, SourceLoc Loc) {
  std::vector<const SymExpr *> Closures;
  Syms.collectClosures(Value, Closures);
  Syms.collectClosuresInMemory(Mem, Closures);
  for (const SymExpr *C : Closures)
    if (!verifyClosure(C, Loc))
      return false;
  return true;
}

std::vector<mix::prov::ModelBinding>
MixChecker::witnessBindings(const SymEnv &Env, const smt::SmtModel &Model) {
  std::vector<prov::ModelBinding> Out;
  for (const auto &[Name, Value] : Env) {
    if (Value->kind() != SymKind::Var)
      continue;
    // Refs and functions have no concise concrete rendering.
    if (!Value->type()->isInt() && !Value->type()->isBool())
      continue;
    const smt::Term *T = Translator.translate(Value);
    std::string Rendered;
    if (T->kind() == smt::TermKind::IntVar && Model.Complete)
      Rendered = std::to_string(Model.intValue(T->varId()));
    else if (T->kind() == smt::TermKind::BoolVar)
      Rendered = Model.boolValue(T->varId()) ? "true" : "false";
    else
      continue;
    Out.push_back({Name, Rendered});
  }
  return Out;
}

std::string MixChecker::describeWitness(const SymEnv &Env,
                                        const smt::SmtModel &Model) {
  std::string Out;
  for (const prov::ModelBinding &B : witnessBindings(Env, Model)) {
    if (!Out.empty())
      Out += ", ";
    Out += B.Name + " = " + B.Value;
  }
  return Out;
}

void MixChecker::reportPathError(const PathResult &P, SourceLoc BlockLoc,
                                 const SymEnv &Env,
                                 const smt::SmtModel &Model) {
  SourceLoc Loc = P.ErrorLoc.isValid() ? P.ErrorLoc : BlockLoc;
  size_t Idx = Diags.report(DiagKind::Error, Loc,
                            P.ErrorMessage + " [on path " +
                                P.State.Path->str() + "]",
                            DiagID::SymExecError);
  if (Opts.Prov) {
    auto Payload = std::make_shared<prov::DiagProvenance>();
    prov::WitnessPath W;
    W.Steps = P.State.Trail;
    W.PathCondition = P.State.Path->str();
    W.Model = witnessBindings(Env, Model);
    W.ModelComplete = Model.Complete;
    W.DecidedBy = Solver->name();
    Payload->Witness = std::move(W);
    Diags.attachProvenance(Idx, std::move(Payload));
    Opts.Prov->countWitness();
  }
  std::string Witness = describeWitness(Env, Model);
  if (!Witness.empty())
    Diags.note(Loc, "for example, when " + Witness, DiagID::WitnessNote);
}

const Type *MixChecker::checkSymbolicCore(const Expr *Body,
                                          const TypeEnv &Gamma,
                                          SourceLoc Loc) {
  obs::PhaseTimer Timer(Opts.Telemetry, obs::Phase::BlockExec);
  obs::TraceSpan Span(Opts.Trace, "mix.block.sym", "mix");
  // TSymBlock, premise 1: Sigma maps each x in dom(Gamma) to a fresh
  // alpha_x : Gamma(x).
  SymEnv Env;
  for (const auto &[Name, Ty] : Gamma)
    Env[Name] = Syms.freshVar(Ty, /*IsAllocAddr=*/false, Name);

  // Premise 2: run from S = <true ; mu> with mu fresh, enumerating every
  // path — either eagerly (SEIf-True and SEIf-False) or through the
  // DART-style concolic loop.
  SymExecResult Result;
  if (Opts.Explore == MixOptions::Exploration::Concolic) {
    SymState Init;
    Init.Path = Syms.trueGuard();
    Init.Mem = Syms.freshBaseMemory();
    ConcolicOptions COpts;
    COpts.MaxRuns = Opts.MaxConcolicRuns;
    ConcolicExploreResult CR = exploreConcolic(Executor, *Solver, Translator,
                                               Body, Env, Init, COpts);
    Result.Paths = std::move(CR.Paths);
    Result.ResourceLimitHit = CR.BudgetExhausted;
  } else {
    Result = Executor.run(Body, Env);
  }
  Statistics.PathsExplored += (unsigned)Result.Paths.size();
  CPaths.add(Result.Paths.size());

  if (Result.ResourceLimitHit) {
    Diags.error(Loc,
                "symbolic block exceeded the execution budget; "
                "cannot establish exhaustiveness",
                DiagID::ExecBudget);
    return nullptr;
  }

  // Classify outcomes. Error paths whose path condition is infeasible are
  // discarded ("eventually, when symbolic execution completes, we will
  // check the path condition and discard the path if it is infeasible").
  std::vector<const PathResult *> Live;
  for (const PathResult &P : Result.Paths) {
    smt::SmtModel Model;
    if (Solver->checkSat(Translator.translate(P.State.Path), &Model) ==
        smt::SolveResult::Unsat) {
      ++Statistics.InfeasiblePathsDiscarded;
      CInfeasible.inc();
      continue;
    }
    if (P.IsError) {
      // A concrete witness makes the report actionable: values for the
      // block's inputs under which the failing path is taken.
      reportPathError(P, Loc, Env, Model);
      return nullptr;
    }
    Live.push_back(&P);
  }

  if (Live.empty()) {
    Diags.error(Loc, "symbolic block has no feasible path",
                DiagID::NoFeasiblePath);
    return nullptr;
  }

  // Premise: all paths produce values u_i : tau of one type tau.
  const Type *Tau = Live.front()->Value->type();
  for (const PathResult *P : Live) {
    if (P->Value->type() != Tau) {
      Diags.error(Loc,
                  "symbolic block paths disagree on the result type: " +
                      Tau->str() + " vs " + P->Value->type()->str(),
                  DiagID::ResultTypeMismatch);
      return nullptr;
    }
  }

  // Escaping closures: the enclosing typed world will trust the block's
  // value (and anything reachable through Gamma's references) at its
  // annotated type, so function bodies leaving the block must type check.
  for (const PathResult *P : Live)
    if (!verifyEscapingClosures(P->Value, P->State.Mem, Loc))
      return nullptr;

  // Premise: |- m(S_i) ok — all paths leave memory consistently typed.
  if (Opts.CheckFinalMemory) {
    for (const PathResult *P : Live) {
      if (!checkMemoryOk(P->State.Mem).Ok) {
        Diags.error(Loc,
                    "symbolic block leaves memory inconsistently "
                    "typed on some path (|- m ok fails)",
                    DiagID::MemoryInconsistent);
        return nullptr;
      }
    }
  }

  // Premise: exhaustive(g(S_1), ..., g(S_n)) — the disjunction of the
  // final path conditions must be a tautology.
  if (Opts.Exhaustive == MixOptions::Exhaustiveness::Require) {
    ++Statistics.ExhaustivenessChecks;
    CExhaustive.inc();
    std::vector<const smt::Term *> Guards;
    Guards.reserve(Live.size());
    for (const PathResult *P : Live)
      Guards.push_back(Translator.translate(P->State.Path));
    if (!Solver->isDefinitelyValid(Terms.orList(Guards))) {
      Diags.error(Loc,
                  "symbolic block paths are not exhaustive: the "
                  "disjunction of path conditions is not a tautology",
                  DiagID::PathsNotExhaustive);
      return nullptr;
    }
  }

  return Tau;
}
