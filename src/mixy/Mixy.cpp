//===--- Mixy.cpp - The MIXY analysis driver --------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mixy/Mixy.h"

#include "persist/AstHash.h"
#include "persist/PersistSession.h"
#include "persist/RecordFile.h"
#include "support/Hash.h"
#include "support/StringExtras.h"

#include <algorithm>

using namespace mix::c;

/// Pushes the analysis-level observability sinks down into the nested
/// option structs so the solver reports into the same registry/trace.
static MixyOptions normalizedOptions(MixyOptions O) {
  O.Smt.Metrics = O.Metrics;
  O.Smt.Trace = O.Trace;
  O.Smt.Telemetry = O.Telemetry;
  O.Sym.Prov = O.Prov;
  O.Qual.Prov = O.Prov;
  return O;
}

uint64_t mix::c::mixyPersistFingerprint(const MixyOptions &Opts) {
  StableHasher H;
  H.boolean(Opts.RestoreAliasing);
  H.u32(MixyAnalysis::MaxFixpointRounds);
  H.u32(engine::MaxRecursionIterations);
  H.u32(Opts.Sym.LoopBound);
  H.u32(Opts.Sym.MaxCallDepth);
  H.u32(Opts.Sym.MaxPaths);
  H.boolean(Opts.Qual.WarnAllDereferences);
  // Recording changes the persisted payload (summaries carry the
  // provenance of their diagnostics), so explain-on and explain-off runs
  // must not share a block store.
  H.boolean(Opts.Prov != nullptr);
  // Backend choice changes the DecidedBy provenance persisted inside
  // block summaries (verdicts themselves are backend-independent).
  H.str(Opts.Solver.Backend);
  // Summary revision, bumped when the same options give a summary new
  // diagnostics or a key new meaning. 1: a block run cut short by its
  // loop, path or call-depth bound carries a MIX303 warning, which older
  // summaries lack. 2: block keys name their function, so a summary
  // stored under an older key may belong to another function. 3: keys
  // hash source text and positions, and a summary holds every warning
  // its run found, not only those no earlier block had reported.
  H.u32(3);
  return H.digest();
}

MixyAnalysis::Engine::Config MixyAnalysis::engineConfig(const MixyOptions &O) {
  Engine::Config C;
  C.EnableCache = O.EnableCache;
  C.Metrics = O.Metrics;
  // Historical counter names predate the shared engine; keep them.
  C.SymCachePrefix = "mixy.cache.sym.";
  C.TypedCachePrefix = "mixy.cache.typed.";
  return C;
}

MixyAnalysis::MixyAnalysis(const CProgram &Program, CAstContext &Ctx,
                           DiagnosticEngine &Diags, MixyOptions OptsIn)
    : Program(Program), Ctx(Ctx), Diags(Diags),
      Opts(normalizedOptions(std::move(OptsIn))),
      Solver(smt::createBackend(Opts.Solver.Backend, Terms, Opts.Smt)),
      PtrAnal(Program, Ctx, Diags), Qual(Program, Ctx, Diags, Opts.Qual),
      Exec(Program, Ctx, Diags, Terms, *Solver, Opts.Sym),
      Eng(engineConfig(Opts)) {
  assert(Solver && "unknown solver backend (validate the SolverSpec with "
                   "parseSolverBackend before constructing)");
  Qual.setSymHook(this);
  Exec.setTypedCallHook(this);
}

MixyAnalysis::~MixyAnalysis() = default;

void MixyAnalysis::publishStats() {
  obs::MetricsRegistry *M = Opts.Metrics;
  if (!M)
    return;
  // Added, not raised to: a registry that counted an earlier analysis
  // must count this one's work too.
  auto Publish = [&](const char *Name, uint64_t V) {
    M->counter(Name).add(V);
  };
  Publish("mixy.sym_block_runs", Statistics.SymbolicBlockRuns);
  Publish("mixy.sym_cache_hits", Statistics.SymbolicCacheHits);
  Publish("mixy.typed_block_runs", Statistics.TypedBlockRuns);
  Publish("mixy.typed_cache_hits", Statistics.TypedCacheHits);
  Publish("mixy.switch.typed_to_sym", Statistics.SymbolicCallsFromTyped);
  Publish("mixy.switch.sym_to_typed", Statistics.TypedCallsFromSymbolic);
  Publish("mixy.fixpoint_rounds", Statistics.FixpointIterations);
  Publish("mixy.recursions", Statistics.RecursionsDetected);
  const CSymExecutor::Stats &X = Exec.stats();
  Publish("csym.paths", X.PathsExplored);
  Publish("csym.forks", X.Forks);
  Publish("csym.forks_pruned", X.ForksPruned);
  Publish("csym.null_checks", X.NullChecks);
  Publish("csym.calls_inlined", X.CallsInlined);
  Publish("ptranal.cells", PtrAnal.numCells());
  Publish("ptranal.unions", PtrAnal.numUnions());
  Publish("qual.variables", Qual.graph().numNodes());
  Publish("qual.flow_edges", Qual.graph().numEdges());
}

void MixyAnalysis::warnIfTruncated(const CFuncDecl *F,
                                   const CSymResult &Result) {
  if (Result.Incomplete)
    Diags.warning(F->loc(),
                  "symbolic execution of '" + F->name() +
                      "' was cut short by its loop, path or call-depth "
                      "bound, so warnings may be missing",
                  DiagID::ExecBudget);
}

// === dependency edges (persist closures) =====================================

std::map<const CFuncDecl *, std::vector<const CFuncDecl *>>
MixyAnalysis::dependencyEdges() {
  // A block's result depends on its callees and on its qualifier-alias
  // neighbors: restoreAliasing unifies qualifiers of variables sharing a
  // points-to class, so an edit to one such function can shift another's
  // calling context.
  summarizeCalls();
  std::map<const CFuncDecl *, std::vector<const CFuncDecl *>> Deps;
  std::vector<const CFuncDecl *> Defined;
  for (const CFuncDecl *F : Program.funcs()) {
    if (!F->isDefined())
      continue;
    const CallSummary &S = Calls[F->index()];
    Deps[F] = S.Callees;
    // A call through a pointer may reach any defined function (as in
    // typedRegionFrom). Route that through one hub node, the null key,
    // whose edges go to every defined function: the same reachability as
    // an edge to each, in linear size.
    if (S.Indirect)
      Deps[F].push_back(nullptr);
    Defined.push_back(F);
  }
  Deps[nullptr] = std::move(Defined);

  std::vector<const CFuncDecl *> Owners;
  for (PointsToAnalysis::CellId Cell = 1; Cell <= PtrAnal.numCells(); ++Cell) {
    if (PtrAnal.find(Cell) != Cell)
      continue;
    // A class lists each function's locals together, functions in
    // declaration order.
    Owners.clear();
    for (CVarRef V : PtrAnal.variablesInClass(Cell))
      if (V.Func && V.Func->isDefined() &&
          (Owners.empty() || Owners.back() != V.Func))
        Owners.push_back(V.Func);
    if (Owners.size() < 2)
      continue;
    for (const CFuncDecl *A : Owners)
      for (const CFuncDecl *B : Owners)
        if (A != B)
          Deps[A].push_back(B);
  }
  return Deps;
}

// === persistent cache (src/persist/) =========================================

void MixyAnalysis::initPersist() {
  if (!Opts.Persist || PersistReady)
    return;
  PersistReady = true;

  // Content hash per defined function, from its source text and position
  // (stable across runs; see persist/AstHash.h).
  std::map<const CFuncDecl *, uint64_t> Content;
  for (const CFuncDecl *F : Program.funcs())
    if (F->isDefined())
      Content[F] = persist::functionContentHash(*F);
  FuncClosure = persist::closureHashes(Content, dependencyEdges(),
                                       persist::environmentHash(Program));
}

uint64_t MixyAnalysis::stableBlockKey(const BlockKey &Key) const {
  StableHasher H;
  H.str(Key.F->name());
  H.u64(FuncClosure.at(Key.F));
  H.boolean(Key.Symbolic);
  H.u32((uint32_t)Key.Params.size());
  for (NullSeed S : Key.Params)
    H.u8((uint8_t)S);
  H.u32((uint32_t)Key.Globals.size());
  for (const auto &[Name, Seed] : Key.Globals) {
    H.str(Name);
    H.u8((uint8_t)Seed);
  }
  return H.digest();
}

std::string MixyAnalysis::encodeBlockSummary(
    const SymOutcome &Outcome, const std::vector<Diagnostic> &Slice,
    const std::vector<TypedSwitch> &Switches) const {
  persist::ByteWriter W;
  W.boolean(Outcome.RetMayBeNull);
  W.u32((uint32_t)Outcome.ParamPointeeMayBeNull.size());
  for (bool B : Outcome.ParamPointeeMayBeNull)
    W.boolean(B);
  W.u32((uint32_t)Outcome.GlobalMayBeNull.size());
  for (const auto &[Name, MayNull] : Outcome.GlobalMayBeNull) {
    W.str(Name);
    W.boolean(MayNull);
  }
  W.u32((uint32_t)Slice.size());
  for (const Diagnostic &D : Slice) {
    W.u8((uint8_t)D.Kind);
    W.u16((uint16_t)D.ID);
    W.u32(D.Loc.Line);
    W.u32(D.Loc.Column);
    W.str(D.Message);
    // The provenance payload rides along verbatim, so a warm hit replays
    // the same explanation the cold run printed.
    W.boolean(D.Prov != nullptr);
    if (D.Prov)
      prov::encodeProvenance(*D.Prov, W);
  }
  W.u32((uint32_t)Switches.size());
  for (const TypedSwitch &S : Switches) {
    W.str(S.Callee);
    W.u32((uint32_t)S.Params.size());
    for (NullSeed Seed : S.Params)
      W.u8((uint8_t)Seed);
    W.u32((uint32_t)S.Globals.size());
    for (const auto &[Name, Seed] : S.Globals) {
      W.str(Name);
      W.u8((uint8_t)Seed);
    }
    W.u32(S.Loc.Line);
    W.u32(S.Loc.Column);
  }
  return W.take();
}

bool MixyAnalysis::decodeBlockSummary(
    const std::string &Payload, SymOutcome &Outcome,
    std::vector<Diagnostic> &Slice,
    std::vector<TypedSwitch> &Switches) const {
  persist::ByteReader R(Payload);
  Outcome = SymOutcome();
  Slice.clear();
  Switches.clear();
  Outcome.RetMayBeNull = R.boolean();
  uint32_t NumParams = R.u32();
  for (uint32_t I = 0; R.ok() && I != NumParams; ++I)
    Outcome.ParamPointeeMayBeNull.push_back(R.boolean());
  uint32_t NumGlobals = R.u32();
  for (uint32_t I = 0; R.ok() && I != NumGlobals; ++I) {
    std::string Name = R.str();
    Outcome.GlobalMayBeNull[Name] = R.boolean();
  }
  uint32_t NumDiags = R.u32();
  for (uint32_t I = 0; R.ok() && I != NumDiags; ++I) {
    Diagnostic D;
    uint8_t Kind = R.u8();
    if (Kind > (uint8_t)DiagKind::Note)
      return false;
    D.Kind = (DiagKind)Kind;
    D.ID = (DiagID)R.u16();
    D.Loc.Line = R.u32();
    D.Loc.Column = R.u32();
    D.Message = R.str();
    if (R.boolean()) {
      D.Prov = prov::decodeProvenance(R);
      if (!D.Prov)
        return false;
    }
    Slice.push_back(std::move(D));
  }
  uint32_t NumSwitches = R.u32();
  for (uint32_t I = 0; R.ok() && I != NumSwitches; ++I) {
    TypedSwitch S;
    S.Callee = R.str();
    uint32_t NP = R.u32();
    for (uint32_t J = 0; R.ok() && J != NP; ++J) {
      uint8_t Seed = R.u8();
      if (Seed > (uint8_t)NullSeed::Nonnull)
        return false;
      S.Params.push_back((NullSeed)Seed);
    }
    uint32_t NG = R.u32();
    for (uint32_t J = 0; R.ok() && J != NG; ++J) {
      std::string Name = R.str();
      uint8_t Seed = R.u8();
      if (Seed > (uint8_t)NullSeed::Nonnull)
        return false;
      S.Globals[Name] = (NullSeed)Seed;
    }
    S.Loc.Line = R.u32();
    S.Loc.Column = R.u32();
    Switches.push_back(std::move(S));
  }
  return R.ok() && R.atEnd();
}

bool MixyAnalysis::switchesResolvable(
    const std::vector<TypedSwitch> &Switches) const {
  for (const TypedSwitch &S : Switches)
    if (!Program.findFunc(S.Callee))
      return false;
  return true;
}

void MixyAnalysis::replayTypedSwitches(
    const std::vector<TypedSwitch> &Switches) {
  for (const TypedSwitch &S : Switches) {
    BlockKey Key;
    Key.Symbolic = false;
    Key.F = Program.findFunc(S.Callee);
    Key.Params = S.Params;
    Key.Globals = S.Globals;
    computeTypedRet(Key, S.Loc);
  }
}

// === region collection =======================================================

void MixyAnalysis::summarizeCalls() {
  if (CallsSummarized)
    return;
  CallsSummarized = true;
  CSema Sema(Program, Ctx, Diags);
  Calls.resize(Program.funcs().size());
  for (const CFuncDecl *F : Program.funcs()) {
    if (!F->isDefined())
      continue;
    CallSummary &S = Calls[F->index()];
    collectCallees(F->body(), Sema, S);
    std::sort(S.Callees.begin(), S.Callees.end(),
              [](const CFuncDecl *A, const CFuncDecl *B) {
                return A->index() < B->index();
              });
    S.Callees.erase(std::unique(S.Callees.begin(), S.Callees.end()),
                    S.Callees.end());
    if (F->mixAnnot() != MixAnnot::Symbolic)
      TypedFuncs.push_back(F);
  }
}

void MixyAnalysis::collectCallees(const CStmt *S, const CSema &Sema,
                                  CallSummary &Out) {
  if (!S)
    return;
  // Walk statements; inspect expressions for calls and address-taken
  // function names.
  std::vector<const CExpr *> Exprs;
  switch (S->kind()) {
  case CStmtKind::Expr:
    Exprs.push_back(cast<CExprStmt>(S)->expr());
    break;
  case CStmtKind::Decl:
    if (cast<CDeclStmt>(S)->init())
      Exprs.push_back(cast<CDeclStmt>(S)->init());
    break;
  case CStmtKind::If: {
    const auto *I = cast<CIfStmt>(S);
    Exprs.push_back(I->cond());
    collectCallees(I->thenStmt(), Sema, Out);
    collectCallees(I->elseStmt(), Sema, Out);
    break;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    Exprs.push_back(W->cond());
    collectCallees(W->body(), Sema, Out);
    break;
  }
  case CStmtKind::Return:
    if (cast<CReturnStmt>(S)->value())
      Exprs.push_back(cast<CReturnStmt>(S)->value());
    break;
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      collectCallees(Sub, Sema, Out);
    break;
  }

  while (!Exprs.empty()) {
    const CExpr *E = Exprs.back();
    Exprs.pop_back();
    switch (E->kind()) {
    case CExprKind::Call: {
      const auto *Call = cast<CCall>(E);
      if (const CFuncDecl *F = Sema.directCallee(Call))
        Out.Callees.push_back(F);
      else {
        Out.Indirect = true;
        Exprs.push_back(Call->callee());
      }
      for (const CExpr *Arg : Call->args())
        Exprs.push_back(Arg);
      break;
    }
    case CExprKind::Unary:
      Exprs.push_back(cast<CUnary>(E)->sub());
      break;
    case CExprKind::Binary:
      Exprs.push_back(cast<CBinary>(E)->lhs());
      Exprs.push_back(cast<CBinary>(E)->rhs());
      break;
    case CExprKind::Assign:
      Exprs.push_back(cast<CAssign>(E)->target());
      Exprs.push_back(cast<CAssign>(E)->value());
      break;
    case CExprKind::Member:
      Exprs.push_back(cast<CMember>(E)->base());
      break;
    case CExprKind::Cast:
      Exprs.push_back(cast<CCast>(E)->sub());
      break;
    case CExprKind::Ident:
      // A function name outside call position: address taken (by name,
      // even where a variable shadows the function).
      if (cast<CIdent>(E)->namesFunction())
        Out.Indirect = true;
      break;
    default:
      break;
    }
  }
}

std::vector<const CFuncDecl *>
MixyAnalysis::typedRegionFrom(const CFuncDecl *Entry) {
  summarizeCalls();
  // BFS over the call graph, stopping at the MIX(symbolic) frontier.
  std::vector<bool> Seen(Program.funcs().size());
  std::vector<const CFuncDecl *> Region;
  std::vector<const CFuncDecl *> Work{Entry};
  while (!Work.empty()) {
    const CFuncDecl *F = Work.back();
    Work.pop_back();
    if (!F->isDefined() || F->mixAnnot() == MixAnnot::Symbolic ||
        Seen[F->index()])
      continue;
    Seen[F->index()] = true;
    const CallSummary &S = Calls[F->index()];
    // Calls through function pointers: conservatively include every
    // defined, non-symbolic function whose address could be taken (the
    // paper uses CIL's pointer analysis to find the targets).
    if (S.Indirect)
      return TypedFuncs;
    Region.push_back(F);
    Work.insert(Work.end(), S.Callees.begin(), S.Callees.end());
  }
  std::sort(Region.begin(), Region.end(),
            [](const CFuncDecl *A, const CFuncDecl *B) {
              return A->index() < B->index();
            });
  return Region;
}

// === context computation (Sections 4.1 / 4.3) ================================

std::vector<NullSeed>
MixyAnalysis::paramSeedsFromArgQuals(const CFuncDecl *Callee,
                                     const std::vector<QualVec> &ArgQuals) {
  // "We first try to solve the current set of constraints to see whether
  // [the qualifier variable] has a solution as either null or nonnull...
  // Otherwise, if it could be either, we first optimistically assume it
  // is nonnull." (Section 4.1)
  Qual.solve();
  std::vector<NullSeed> Seeds;
  for (size_t I = 0; I != Callee->params().size(); ++I) {
    const CType *Ty = Callee->params()[I].Ty;
    if (!Ty->isPointer()) {
      Seeds.push_back(NullSeed::Nonnull); // ignored for non-pointers
      continue;
    }
    bool MayNull = false;
    if (I < ArgQuals.size() && !ArgQuals[I].empty())
      MayNull = Qual.mayBeNull(ArgQuals[I][0]);
    Seeds.push_back(MayNull ? NullSeed::MayBeNull : NullSeed::Nonnull);
  }
  return Seeds;
}

std::map<std::string, NullSeed> MixyAnalysis::globalSeedsFromQuals() {
  Qual.solve();
  std::map<std::string, NullSeed> Seeds;
  for (const CGlobalDecl *G : Program.globals()) {
    if (!G->type()->isPointer())
      continue;
    const QualVec &Q = Qual.qualsOfGlobal(G);
    bool MayNull = !Q.empty() && Qual.mayBeNull(Q[0]);
    Seeds[G->name()] = MayNull ? NullSeed::MayBeNull : NullSeed::Nonnull;
  }
  return Seeds;
}

QualVec MixyAnalysis::freshQuals(const CType *Ty,
                                 const std::string &Description,
                                 SourceLoc Loc) {
  QualVec Out;
  unsigned Level = 0;
  while (Ty->isPointer()) {
    std::string Name = Description;
    if (Level != 0)
      Name += " @" + std::to_string(Level);
    Out.push_back(Qual.graph().newNode(Name, Loc));
    Ty = Ty->pointee();
    ++Level;
  }
  return Out;
}

// === symbolic blocks (typed -> symbolic -> typed) ===========================

MixyAnalysis::SymOutcome
MixyAnalysis::translateResult(const CFuncDecl *F, const CSymResult &Result) {
  // "From Symbolic Values to Types": for each caller-visible pointer slot,
  // ask whether g and (s = 0) is satisfiable and record null if so.
  SymOutcome Outcome;
  Outcome.ParamPointeeMayBeNull.assign(F->params().size(), false);

  for (const CSymResult::PathOut &P : Result.Paths) {
    if (P.Returned && F->returnType()->isPointer() && P.Ret.isPtr() &&
        Exec.mayBeNull(P.Path, P.Ret))
      Outcome.RetMayBeNull = true;

    for (size_t I = 0; I != F->params().size(); ++I) {
      LocId Pointee = I < Result.ParamPointeeLocs.size()
                          ? Result.ParamPointeeLocs[I]
                          : NoLoc;
      if (Pointee == NoLoc)
        continue;
      auto Cell = CSymExecutor::finalCell(P, Pointee);
      if (Cell && Cell->isPtr() && Exec.mayBeNull(P.Path, *Cell))
        Outcome.ParamPointeeMayBeNull[I] = true;
    }

    for (const CGlobalDecl *G : Program.globals()) {
      if (!G->type()->isPointer())
        continue;
      auto Cell = CSymExecutor::finalCell(P, Exec.globalLoc(G));
      if (Cell && Cell->isPtr() && Exec.mayBeNull(P.Path, *Cell))
        Outcome.GlobalMayBeNull[G->name()] = true;
    }
  }
  return Outcome;
}

MixyAnalysis::SymOutcome
MixyAnalysis::computeSymOutcome(const BlockKey &Key) {
  // Only a run with the block cache stores a stable key at most once (a
  // repeat hits the cache, re-enters the stack or replays), so only such
  // a run reads or writes block summaries.
  bool Persistable =
      Opts.Persist && Opts.EnableCache && FuncClosure.count(Key.F) != 0;
  uint64_t PKey = Persistable ? stableBlockKey(Key) : 0;

  // Run state the engine hooks share: the trace span lives here so it
  // brackets the whole run (it outlives OnEvalBegin and is still open
  // through OnEvalEnd's provenance/persist work, like the historical
  // inline code); the switch log records this run's sym-to-typed
  // switches for the persistent summary.
  std::optional<obs::TraceSpan> Span;
  std::optional<obs::PhaseTimer> Timer;
  size_t DiagsBefore = 0;
  std::vector<TypedSwitch> SwitchLog;
  std::vector<TypedSwitch> *PrevLog = nullptr;

  engine::RunHooks<SymOutcome> H;
  H.OnCacheHit = [&](const SymOutcome &) { ++Statistics.SymbolicCacheHits; };
  // Recursion cut-off (Section 4.4), detected on the block stack.
  H.OnRecursion = [&] { ++Statistics.RecursionsDetected; };
  // Persistent replay (src/persist/). The stable key embeds the
  // function's dependency-closure hash, so entries written before an
  // edit anywhere in this block's dependency cone can never match.
  if (Persistable)
    H.Replay = [&]() -> std::optional<SymOutcome> {
      auto Payload = Opts.Persist->lookup(PKey);
      if (!Payload)
        return std::nullopt;
      SymOutcome Outcome;
      std::vector<Diagnostic> Slice;
      std::vector<TypedSwitch> Switches;
      // A summary only replays when every recorded callee still resolves
      // (always true when the closure hash matched; checked up front so a
      // bad payload never half-replays).
      if (!decodeBlockSummary(*Payload, Outcome, Slice, Switches) ||
          !switchesResolvable(Switches))
        return std::nullopt;
      // Replay every diagnostic the stored run reported, as a fresh run
      // would; run() drops the repeats at the end. The slice replays
      // first (it carries the cold emission order, including nested
      // blocks' warnings); the typed switches after it re-seed the
      // qualifier graph.
      for (const Diagnostic &D : Slice) {
        size_t Idx = Diags.report(D.Kind, D.Loc, D.Message, D.ID);
        // Re-attach the recorded explanation verbatim — including the
        // disposition the cold run stamped — so --explain output is
        // byte-identical cold vs. warm; only the replay counter tells
        // the runs apart.
        if (D.Prov) {
          Diags.attachProvenance(Idx, D.Prov);
          if (Opts.Prov)
            Opts.Prov->countReplay();
        }
      }
      replayTypedSwitches(Switches);
      return Outcome;
    };
  H.Init = [&] {
    SymOutcome Assumption;
    Assumption.ParamPointeeMayBeNull.assign(Key.F->params().size(), false);
    return Assumption;
  };
  H.OnEvalBegin = [&] {
    Timer.emplace(Opts.Telemetry, obs::Phase::BlockExec);
    Span.emplace(Opts.Trace, "mixy.block.sym", "mixy");
    if (Opts.Trace)
      Span->setArgs("{\"function\": \"" + jsonEscape(Key.F->name()) + "\"}");
    DiagsBefore = Diags.size();
    // Nested blocks save and restore the log slot so each run logs only
    // its own switches.
    PrevLog = ActiveTypedLog;
    ActiveTypedLog = Persistable ? &SwitchLog : nullptr;
  };
  H.OnIteration = [&](unsigned) { ++Statistics.SymbolicBlockRuns; };
  H.Eval = [&] {
    // The truncation warning is emitted here, inside the run, so it joins
    // the persisted diagnostic slice and a warm replay reports it too.
    CSymResult Result = Exec.runFunction(Key.F, Key.Params, Key.Globals);
    warnIfTruncated(Key.F, Result);
    return translateResult(Key.F, Result);
  };
  H.OnEvalEnd = [&](const SymOutcome &Outcome) {
    ActiveTypedLog = PrevLog;

    if (Opts.Prov) {
      // Stamp every diagnostic this run emitted with the block stack that
      // was live while it ran (the engine has already popped this block,
      // so its stack is the enclosing context). Nested block runs already
      // stamped their own (deeper) stack and are left alone; notes
      // inherit their parent's context implicitly.
      std::vector<std::string> StackNames;
      for (const Engine::StackEntry &E : Eng.stack())
        StackNames.push_back(E.K.F->name() +
                             (E.Symbolic ? " [symbolic]" : " [typed]"));
      StackNames.push_back(Key.F->name() + " [symbolic]");
      const std::vector<Diagnostic> &All = Diags.diagnostics();
      for (size_t I = DiagsBefore; I != All.size(); ++I) {
        const Diagnostic &D = All[I];
        if (D.Kind == DiagKind::Note)
          continue;
        if (D.Prov && !D.Prov->Block.Stack.empty())
          continue;
        auto P = std::make_shared<prov::DiagProvenance>(
            D.Prov ? *D.Prov : prov::DiagProvenance());
        P->Block.Stack = StackNames;
        P->Block.Disposition = prov::BlockDisposition::Fresh;
        Diags.attachProvenance(I, std::move(P));
        Opts.Prov->countBlock();
      }
    }

    if (Persistable) {
      const std::vector<Diagnostic> &All = Diags.diagnostics();
      std::vector<Diagnostic> Slice(All.begin() + (long)DiagsBefore,
                                    All.end());
      Opts.Persist->store(PKey,
                          encodeBlockSummary(Outcome, Slice, SwitchLog));
    }
  };

  return Eng.runSymbolic(Key, H);
}

void MixyAnalysis::restoreAliasing(const CFuncDecl *Callee) {
  if (!Opts.RestoreAliasing)
    return;
  // "We use CIL's built-in may pointer analysis to conservatively
  // discover points-to relationships... we add constraints to require
  // that all may-aliased expressions have the same type." (Section 4.2)
  auto UnifyTargetsOf = [&](PointsToAnalysis::CellId Cell) {
    PointsToAnalysis::CellId Target = PtrAnal.pointsTo(Cell);
    if (Target == PointsToAnalysis::NoCell)
      return;
    Qual.unifyAliasClass(PtrAnal.variablesInClass(Target), Callee->loc());
  };
  for (const auto &P : Callee->params())
    if (P.Ty->isPointer())
      UnifyTargetsOf(PtrAnal.cellOfLocal(Callee, P.Slot));
  for (const CGlobalDecl *G : Program.globals())
    if (G->type()->isPointer())
      UnifyTargetsOf(PtrAnal.cellOfGlobal(G));
}

void MixyAnalysis::applySymOutcome(const SymOutcome &Outcome,
                                   const CCall *Call,
                                   const CFuncDecl *Callee,
                                   const std::vector<QualVec> &ArgQuals,
                                   QualVec &RetQuals) {
  // These seeds cross the symbolic-to-typed boundary (the block summary
  // feeding the qualifier graph), so their flow-chain edges are labeled
  // as mix-boundary edges.
  if (Outcome.RetMayBeNull && !RetQuals.empty())
    Qual.seedNull(RetQuals[0],
                  "symbolic result of " + Callee->name() + " may be null",
                  Call->loc(), prov::FlowEdgeKind::MixBoundary);
  for (size_t I = 0; I != Outcome.ParamPointeeMayBeNull.size(); ++I) {
    if (!Outcome.ParamPointeeMayBeNull[I])
      continue;
    if (I < ArgQuals.size() && ArgQuals[I].size() > 1)
      Qual.seedNull(ArgQuals[I][1],
                    "after " + Callee->name() + ", *" +
                        Callee->params()[I].Name + " may be null",
                    Call->loc(), prov::FlowEdgeKind::MixBoundary);
  }
  for (const auto &[Name, MayNull] : Outcome.GlobalMayBeNull) {
    // Summaries name their globals, so they survive across runs.
    const CGlobalDecl *G = Program.findGlobal(Name);
    if (!MayNull || !G)
      continue;
    const QualVec &Q = Qual.qualsOfGlobal(G);
    if (!Q.empty())
      Qual.seedNull(Q[0],
                    "after " + Callee->name() + ", global " + Name +
                        " may be null",
                    Call->loc(), prov::FlowEdgeKind::MixBoundary);
  }
  restoreAliasing(Callee);
}

bool MixyAnalysis::handleSymbolicCall(const CCall *Call,
                                      const CFuncDecl *Callee,
                                      const std::vector<QualVec> &ArgQuals,
                                      QualVec &RetQuals) {
  if (!Callee->isDefined())
    return false;

  ++Statistics.SymbolicCallsFromTyped;

  BlockKey Key;
  Key.Symbolic = true;
  Key.F = Callee;
  Key.Params = paramSeedsFromArgQuals(Callee, ArgQuals);
  Key.Globals = globalSeedsFromQuals();

  RetQuals = freshQuals(Callee->returnType(),
                        "symbolic call " + Callee->name(), Call->loc());

  SymOutcome Outcome = computeSymOutcome(Key);
  applySymOutcome(Outcome, Call, Callee, ArgQuals, RetQuals);

  // Remember the site for the fixpoint loop (Section 4.1).
  SymCallSites.push_back({Call, Callee, ArgQuals, RetQuals, Key});
  return true;
}

// === typed blocks (symbolic -> typed -> symbolic) ===========================

bool MixyAnalysis::computeTypedRet(const BlockKey &Key, SourceLoc CallLoc) {
  std::optional<obs::TraceSpan> Span;
  std::optional<obs::PhaseTimer> Timer;

  engine::RunHooks<bool> H;
  H.OnCacheHit = [&](const bool &) { ++Statistics.TypedCacheHits; };
  H.OnRecursion = [&] { ++Statistics.RecursionsDetected; };
  H.OnEvalBegin = [&] {
    Timer.emplace(Opts.Telemetry, obs::Phase::BlockExec);
    Span.emplace(Opts.Trace, "mixy.block.typed", "mixy");
    if (Opts.Trace)
      Span->setArgs("{\"function\": \"" + jsonEscape(Key.F->name()) + "\"}");
  };
  H.OnIteration = [&](unsigned) { ++Statistics.TypedBlockRuns; };
  H.Eval = [&] {
    // Run qualifier inference over the typed region rooted here; nested
    // MIX(symbolic) frontier calls re-enter handleSymbolicCall.
    for (const CFuncDecl *F : typedRegionFrom(Key.F))
      Qual.analyzeFunction(F);
    Qual.analyzeGlobals();

    // Seed the calling context ("From Symbolic Values to Types").
    for (size_t I = 0; I != Key.Params.size(); ++I) {
      if (Key.Params[I] != NullSeed::MayBeNull)
        continue;
      const QualVec &PQ = Qual.qualsOfParam(Key.F, (unsigned)I);
      if (!PQ.empty())
        Qual.seedNull(PQ[0], "symbolic argument may be null", CallLoc,
                      prov::FlowEdgeKind::MixBoundary);
    }
    for (const auto &[Name, Seed] : Key.Globals) {
      const CGlobalDecl *G = Program.findGlobal(Name);
      if (Seed != NullSeed::MayBeNull || !G)
        continue;
      const QualVec &GQ = Qual.qualsOfGlobal(G);
      if (!GQ.empty())
        Qual.seedNull(GQ[0], "global may be null at symbolic call", CallLoc,
                      prov::FlowEdgeKind::MixBoundary);
    }

    Qual.solve();
    const QualVec &RQ = Qual.qualsOfReturn(Key.F);
    return !RQ.empty() && Qual.mayBeNull(RQ[0]);
  };

  return Eng.runTyped(Key, H);
}

bool MixyAnalysis::callTypedFunction(CSymState &State, const CCall *Call,
                                     const CFuncDecl *Callee,
                                     const std::vector<CSymValue> &Args,
                                     CSymValue &RetOut) {
  ++Statistics.TypedCallsFromSymbolic;

  BlockKey Key;
  Key.Symbolic = false;
  Key.F = Callee;
  // The calling context from symbolic values: solver queries per pointer
  // argument and per pointer global present in the store.
  for (size_t I = 0; I != Callee->params().size(); ++I) {
    bool MayNull = I < Args.size() && Args[I].isPtr() &&
                   Exec.mayBeNull(State.Path, Args[I]);
    Key.Params.push_back(MayNull ? NullSeed::MayBeNull : NullSeed::Nonnull);
  }
  for (const CGlobalDecl *G : Program.globals()) {
    if (!G->type()->isPointer())
      continue;
    auto Cell = State.Store.get({Exec.globalLoc(G)});
    if (!Cell || !Cell->isPtr())
      continue;
    Key.Globals[G->name()] = Exec.mayBeNull(State.Path, *Cell)
                                ? NullSeed::MayBeNull
                                : NullSeed::Nonnull;
  }

  // Record the switch for the enclosing block's persistent summary (null
  // slot when the run is not being recorded): a warm replay re-seeds the
  // same qualifier constraints this switch is about to.
  if (ActiveTypedLog)
    ActiveTypedLog->push_back(
        {Callee->name(), Key.Params, Key.Globals, Call->loc()});

  bool RetMayBeNull = computeTypedRet(Key, Call->loc());

  // Re-entering symbolic execution: memory is havocked ("symbolic blocks
  // are forced to start with a fresh memory when switching from typed
  // blocks", Section 4.6), then pointer globals are re-seeded from the
  // current qualifier solution.
  Exec.havocStore(State);
  Qual.solve();
  for (const CGlobalDecl *G : Program.globals()) {
    if (!G->type()->isPointer())
      continue;
    const QualVec &Q = Qual.qualsOfGlobal(G);
    NullSeed Seed = (!Q.empty() && Qual.mayBeNull(Q[0]))
                        ? NullSeed::MayBeNull
                        : NullSeed::Nonnull;
    State.Store.set({Exec.globalLoc(G)},
                    Exec.seededPointer(G->type(), Seed, G->name()));
  }

  if (Callee->returnType()->isPointer())
    RetOut = Exec.seededPointer(Callee->returnType(),
                                RetMayBeNull ? NullSeed::MayBeNull
                                             : NullSeed::Nonnull,
                                Callee->name() + "()");
  else
    RetOut =
        CSymValue::scalar(Exec.terms().freshIntVar(Callee->name() + "()"));
  return true;
}

// === driver ==================================================================

unsigned MixyAnalysis::run(StartMode Mode, const std::string &Entry) {
  PtrAnal.run();
  initPersist();
  // Block runs and replays report everything they found; the repeats go
  // once every block has finished, before the qualifier warnings.
  const size_t FirstDiag = Diags.size();

  const CFuncDecl *EntryFunc = Program.findFunc(Entry);
  if (!EntryFunc || !EntryFunc->isDefined()) {
    Diags.error(SourceLoc(), "entry function '" + Entry + "' not found",
                DiagID::EntryNotFound);
    publishStats();
    return Diags.warningCount();
  }

  if (Mode == StartMode::Symbolic ||
      EntryFunc->mixAnnot() == MixAnnot::Symbolic) {
    // Begin in symbolic mode: execute the entry function; typed frontier
    // calls switch through callTypedFunction.
    ++Statistics.SymbolicBlockRuns;
    {
      obs::PhaseTimer Timer(Opts.Telemetry, obs::Phase::BlockExec);
      obs::TraceSpan Span(Opts.Trace, "mixy.block.sym", "mixy");
      if (Opts.Trace)
        Span.setArgs("{\"function\": \"" + jsonEscape(EntryFunc->name()) +
                     "\"}");
      warnIfTruncated(EntryFunc, Exec.runFunction(EntryFunc));
    }
    Qual.solve();
    Diags.dropRepeatedWarnings(FirstDiag);
    Qual.reportWarnings();
    publishStats();
    return Diags.warningCount();
  }

  // Begin in typed mode: qualifier inference over the region reachable
  // from the entry, with symbolic frontier calls via handleSymbolicCall.
  Qual.analyzeGlobals();
  for (const CFuncDecl *F : typedRegionFrom(EntryFunc))
    Qual.analyzeFunction(F);

  // Fixpoint (Section 4.1): re-run symbolic blocks whose calling context
  // changed as constraints accumulated, until a round changes nothing.
  // Gauss-Seidel: each round refreshes the sites in index order and
  // evaluates each changed one on the spot, so every evaluation sees
  // every earlier one's effects.
  obs::Counter CReruns, CCut;
  if (Opts.Metrics) {
    CReruns = Opts.Metrics->counter("engine.fixpoint.reruns");
    CCut = Opts.Metrics->counter("engine.fixpoint.cut");
  }
  bool Converged = true;
  {
    obs::PhaseTimer Timer(Opts.Telemetry, obs::Phase::Fixpoint);
    std::vector<bool> Evaluated;
    unsigned Round = 0;
    for (; Round != MaxFixpointRounds; ++Round) {
      obs::TraceSpan Span(Opts.Trace, "mixy.round", "mixy");
      if (Opts.Trace)
        Span.setArgs("{\"round\": " + std::to_string(Round) + "}");
      Qual.solve();
      bool Changed = false;
      // Take the count once: a nested frontier call may append a site
      // while the round runs, and that site waits for the next round.
      size_t N = SymCallSites.size();
      Evaluated.resize(N, false);
      for (size_t I = 0; I != N; ++I) {
        if (!refreshSite(I))
          continue;
        Changed = true;
        if (Evaluated[I])
          CReruns.inc();
        Evaluated[I] = true;
        // Copy the key: a nested frontier call can grow SymCallSites and
        // invalidate references into it.
        BlockKey Key = SymCallSites[I].LastKey;
        SymOutcome Outcome = computeSymOutcome(Key);
        SymCallSite &Site = SymCallSites[I];
        applySymOutcome(Outcome, Site.Call, Site.Callee, Site.ArgQuals,
                        Site.RetQuals);
      }
      if (!Changed)
        break;
      ++Statistics.FixpointIterations;
    }
    // Every allowed round changed something. The last one may still have
    // reached the fixpoint, so refresh (without evaluating) once more: a
    // context that still changes means the cap cut the run off.
    if (Round == MaxFixpointRounds) {
      Qual.solve();
      for (size_t I = 0, N = SymCallSites.size(); I != N && Converged; ++I)
        Converged = !refreshSite(I);
      if (!Converged)
        CCut.inc();
    }
  }
  // A fixpoint cut off by the round cap can miss null flows that had not
  // yet reached their sink, so a truncated run must not pass as clean.
  if (!Converged)
    Diags.warning(EntryFunc->loc(),
                  "fixpoint budget exhausted: calling contexts still "
                  "changed after " +
                      std::to_string(MaxFixpointRounds) +
                      " rounds, so warnings may be missing",
                  DiagID::ExecBudget);

  Qual.solve();
  Diags.dropRepeatedWarnings(FirstDiag);
  Qual.reportWarnings();
  publishStats();
  return Diags.warningCount();
}

bool MixyAnalysis::refreshSite(size_t I) {
  SymCallSite &Site = SymCallSites[I];
  BlockKey Key;
  Key.Symbolic = true;
  Key.F = Site.Callee;
  Key.Params = paramSeedsFromArgQuals(Site.Callee, Site.ArgQuals);
  Key.Globals = globalSeedsFromQuals();
  if (Key == Site.LastKey)
    return false;
  Site.LastKey = Key;
  return true;
}
