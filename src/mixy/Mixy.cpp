//===--- Mixy.cpp - The MIXY analysis driver --------------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "mixy/Mixy.h"

#include "concolic/CIrExecutor.h"
#include "engine/Fixpoint.h"
#include "persist/AstHash.h"
#include "persist/PersistSession.h"
#include "persist/RecordFile.h"
#include "support/Hash.h"
#include "support/StringExtras.h"

using namespace mix::c;

namespace {
/// The WorkerContext of the pool task currently running on this thread,
/// if any (type-erased so the private nested type stays private).
thread_local void *ActiveWorkerCtx = nullptr;

/// The typed-switch log of the innermost persistable symbolic block run
/// on this thread (a std::vector<MixyAnalysis::TypedSwitch>*, type-erased
/// like ActiveWorkerCtx). Null when the current run is not being
/// recorded. computeSymOutcome saves and restores it around each block,
/// so nested blocks log to their own summaries.
thread_local void *ActiveTypedLog = nullptr;
} // namespace

/// Everything a pool worker owns privately: a leased solver instance
/// (with its term arena), a diagnostics buffer merged at round barriers,
/// a symbolic executor bound to all three, and a recursion stack.
struct MixyAnalysis::WorkerContext {
  MixyAnalysis *Owner;
  smt::SolverPool::Lease SolverLease;
  DiagnosticEngine Diags;
  CSymExecutor Exec;
  std::unique_ptr<CBodyEngine> BodyEngine;
  Engine::BlockStack Stack;
  size_t Merged = 0; ///< diagnostics already consumed by earlier barriers

  explicit WorkerContext(MixyAnalysis &A)
      : Owner(&A), SolverLease(A.Solvers.acquire()),
        Exec(A.Program, A.Ctx, Diags, SolverLease.terms(),
             SolverLease.solver(), A.Opts.Sym) {
    Exec.setTypedCallHook(&A);
    BodyEngine = concolic::makeCBodyEngine(Exec, A.Opts.ExecMode,
                                           A.Opts.Metrics, A.Opts.Telemetry);
    if (BodyEngine)
      Exec.setBodyEngine(BodyEngine.get());
  }
};

/// Pushes the analysis-level observability sinks down into the nested
/// option structs so every solver (serial and pooled) reports into the
/// same registry/trace, and attaches the persistent query store (if any)
/// the same way — SolverPool copies Smt into every pooled instance, so
/// one assignment covers the serial solver and all workers.
static MixyOptions normalizedOptions(MixyOptions O) {
  O.Smt.Metrics = O.Metrics;
  O.Smt.Trace = O.Trace;
  O.Smt.Telemetry = O.Telemetry;
  O.Sym.Prov = O.Prov;
  O.Qual.Prov = O.Prov;
  if (O.Persist)
    O.Smt.Cache = &O.Persist->solverCache();
  return O;
}

uint64_t mix::c::mixyPersistFingerprint(const MixyOptions &Opts) {
  StableHasher H;
  H.boolean(Opts.RestoreAliasing);
  H.u32(Opts.MaxFixpointIterations);
  H.u32(Opts.MaxRecursionIterations);
  H.u32(Opts.Sym.LoopBound);
  H.u32(Opts.Sym.MaxCallDepth);
  H.u32(Opts.Sym.MaxPaths);
  H.boolean(Opts.Sym.ParamsMayBeNull);
  H.boolean(Opts.Sym.CheckNonnullArguments);
  H.boolean(Opts.Sym.CheckDereferences);
  H.boolean(Opts.Qual.WarnAllDereferences);
  H.u32(Opts.Smt.MaxTheoryIterations);
  // Recording changes the persisted payload (summaries carry the
  // provenance of their diagnostics), so explain-on and explain-off runs
  // must not share a block store.
  H.boolean(Opts.Prov != nullptr);
  // Backend choice changes the DecidedBy provenance persisted inside
  // block summaries (verdicts themselves are backend-independent).
  // Sym.IncrementalSolver is deliberately excluded: it only changes how
  // queries are batched, never a verdict or a diagnostic. ExecMode is
  // excluded for the same reason: the IR engine is byte-identical to the
  // AST walker, so --exec=ast and --exec=ir runs share a block store.
  H.str(Opts.Solver.Backend);
  H.boolean(Opts.Solver.Portfolio);
  return H.digest();
}

MixyAnalysis::Engine::Config MixyAnalysis::engineConfig(const MixyOptions &O) {
  Engine::Config C;
  C.EnableCache = O.EnableCache;
  C.MaxRecursionIterations = O.MaxRecursionIterations;
  C.Shards = blockCacheShardsFor(O.Jobs);
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
      Solver(smt::createSolver(Opts.Solver, Terms, Opts.Smt)),
      PtrAnal(Program, Ctx, Diags), Qual(Program, Ctx, Diags, Opts.Qual),
      Exec(Program, Ctx, Diags, Terms, *Solver, Opts.Sym),
      Eng(engineConfig(Opts)), Solvers(Opts.Smt, Opts.Solver) {
  assert(Solver && "unknown solver backend (validate the SolverSpec with "
                   "parseSolverBackend before constructing)");
  Qual.setSymHook(this);
  Exec.setTypedCallHook(this);
  BodyEngine = concolic::makeCBodyEngine(Exec, Opts.ExecMode, Opts.Metrics,
                                         Opts.Telemetry);
  if (BodyEngine)
    Exec.setBodyEngine(BodyEngine.get());
}

MixyAnalysis::~MixyAnalysis() = default;

void MixyAnalysis::bumpStat(unsigned MixyStats::*Field) {
  std::lock_guard<std::mutex> Lock(StatsM);
  ++(Statistics.*Field);
}

void MixyAnalysis::publishStats() {
  obs::MetricsRegistry *M = Opts.Metrics;
  if (!M)
    return;
  // Counters are monotone; raise each one to the stat's current value so
  // repeated run() calls against one analysis stay consistent.
  auto Publish = [&](const char *Name, uint64_t V) {
    obs::Counter C = M->counter(Name);
    uint64_t Cur = C.value();
    if (V > Cur)
      C.add(V - Cur);
  };
  std::lock_guard<std::mutex> Lock(StatsM);
  Publish("mixy.sym_block_runs", Statistics.SymbolicBlockRuns);
  Publish("mixy.sym_cache_hits", Statistics.SymbolicCacheHits);
  Publish("mixy.typed_block_runs", Statistics.TypedBlockRuns);
  Publish("mixy.typed_cache_hits", Statistics.TypedCacheHits);
  Publish("mixy.switch.typed_to_sym", Statistics.SymbolicCallsFromTyped);
  Publish("mixy.switch.sym_to_typed", Statistics.TypedCallsFromSymbolic);
  Publish("mixy.fixpoint_rounds", Statistics.FixpointIterations);
  Publish("mixy.recursions", Statistics.RecursionsDetected);
}

// === dependency edges (persist closures + worklist site graph) ===============

std::map<const CFuncDecl *, std::vector<const CFuncDecl *>>
MixyAnalysis::dependencyEdges(bool &SawIndirect) {
  // A block's result depends on its callees (direct call graph; indirect
  // calls conservatively reach every defined function, mirroring
  // typedRegionFrom) and on its qualifier-alias neighbors:
  // restoreAliasing unifies qualifiers of variables sharing a points-to
  // class, so an edit to one such function can shift another's calling
  // context.
  std::map<const CFuncDecl *, std::vector<const CFuncDecl *>> Deps;
  SawIndirect = false;
  for (const CFuncDecl *F : Program.funcs()) {
    if (!F->isDefined())
      continue;
    std::set<const CFuncDecl *> Callees;
    collectCallees(F->body(), Callees, SawIndirect);
    Deps[F].assign(Callees.begin(), Callees.end());
  }
  if (SawIndirect) {
    // Every function may reach every defined function. Route that through
    // one hub node, the null key (F -> hub -> every defined function): the
    // same reachability as all-to-all edges, in linear size.
    std::vector<const CFuncDecl *> All;
    for (auto &[F, D] : Deps) {
      All.push_back(F);
      D = {nullptr};
    }
    Deps[nullptr] = std::move(All);
  } else {
    for (PointsToAnalysis::CellId Cell = 1; Cell <= PtrAnal.numCells();
         ++Cell) {
      if (PtrAnal.find(Cell) != Cell)
        continue;
      std::set<const CFuncDecl *> Owners;
      for (const auto &[Func, Name] : PtrAnal.variablesInClass(Cell)) {
        (void)Name;
        if (Func && Func->isDefined())
          Owners.insert(Func);
      }
      if (Owners.size() < 2)
        continue;
      for (const CFuncDecl *A : Owners)
        for (const CFuncDecl *B : Owners)
          if (A != B)
            Deps[A].push_back(B);
    }
  }
  return Deps;
}

// === persistent cache / incremental engine (src/persist/) ====================

void MixyAnalysis::initPersist() {
  persist::PersistSession *Session = Opts.Persist;
  if (!Session || PersistReady)
    return;
  PersistReady = true;
  PersistBlocks = Session->incremental();

  // Content hash per defined function, from the printed AST (stable
  // across runs; see persist/AstHash.h).
  std::map<const CFuncDecl *, uint64_t> Content;
  for (const CFuncDecl *F : Program.funcs())
    if (F->isDefined())
      Content[F] = persist::functionContentHash(*F);
  uint64_t Env = persist::environmentHash(Program);

  bool SawIndirect = false;
  FuncClosure =
      persist::closureHashes(Content, dependencyEdges(SawIndirect), Env);

  // Manifest bookkeeping: record this run's hashes and, in incremental
  // mode, diff against the previous run's to report how much of the
  // program actually needs re-analysis ("persist.funcs.*" metrics).
  persist::Manifest M;
  for (const auto &[F, Hash] : Content)
    M.Funcs[F->name()] = {Hash, FuncClosure.at(F)};
  const persist::Manifest &Prev = Session->previousManifest();
  if (Opts.Metrics && PersistBlocks) {
    unsigned Changed = 0, Dirty = 0;
    for (const auto &[Name, Rec] : M.Funcs) {
      auto It = Prev.Funcs.find(Name);
      if (It == Prev.Funcs.end() || It->second.ContentHash != Rec.ContentHash)
        ++Changed;
      if (It == Prev.Funcs.end() || It->second.ClosureHash != Rec.ClosureHash)
        ++Dirty;
    }
    Opts.Metrics->counter("persist.funcs.total").add(M.Funcs.size());
    Opts.Metrics->counter("persist.funcs.changed").add(Changed);
    Opts.Metrics->counter("persist.funcs.dirty").add(Dirty);
  }
  Session->setCurrentManifest(std::move(M));
}

uint64_t MixyAnalysis::stableBlockKey(const BlockKey &Key) const {
  StableHasher H;
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

void MixyAnalysis::storeBlockSummary(
    uint64_t PKey, const SymOutcome &Outcome,
    const std::vector<Diagnostic> &Slice,
    const std::vector<TypedSwitch> &Switches) {
  // Read-merge-write under a lock: a parallel run can evaluate the same
  // calling context on two workers against different snapshots of the
  // shared qualifier state, and each evaluation's outcome is a valid
  // under-approximation of what the fixpoint ultimately applied. The
  // qualifier graph received the union of the seedings, so the summary a
  // warm run replays must be the union too — every fact here is a
  // monotone may-be-null bit, so merging is an OR and reaches the same
  // least fixpoint.
  std::lock_guard<std::mutex> Lock(PersistStoreM);
  SymOutcome MergedOutcome = Outcome;
  std::vector<Diagnostic> MergedSlice = Slice;
  std::vector<TypedSwitch> MergedSwitches = Switches;
  if (auto Payload = Opts.Persist->blocks().lookup(PKey)) {
    SymOutcome Old;
    std::vector<Diagnostic> OldSlice;
    std::vector<TypedSwitch> OldSwitches;
    if (decodeBlockSummary(*Payload, Old, OldSlice, OldSwitches)) {
      MergedOutcome.RetMayBeNull |= Old.RetMayBeNull;
      if (MergedOutcome.ParamPointeeMayBeNull.size() <
          Old.ParamPointeeMayBeNull.size())
        MergedOutcome.ParamPointeeMayBeNull.resize(
            Old.ParamPointeeMayBeNull.size(), false);
      for (size_t I = 0; I != Old.ParamPointeeMayBeNull.size(); ++I)
        if (Old.ParamPointeeMayBeNull[I])
          MergedOutcome.ParamPointeeMayBeNull[I] = true;
      for (const auto &[Name, MayNull] : Old.GlobalMayBeNull)
        if (MayNull)
          MergedOutcome.GlobalMayBeNull[Name] = true;
      // Union the switch logs: replaying a switch re-seeds constraints
      // the solver already has, so repeats are idempotent — but a switch
      // only one evaluation recorded must survive.
      auto SameSwitch = [](const TypedSwitch &A, const TypedSwitch &B) {
        return A.Callee == B.Callee && A.Params == B.Params &&
               A.Globals == B.Globals && A.Loc.Line == B.Loc.Line &&
               A.Loc.Column == B.Loc.Column;
      };
      for (const TypedSwitch &S : OldSwitches) {
        bool Seen = false;
        for (const TypedSwitch &N : MergedSwitches)
          Seen = Seen || SameSwitch(N, S);
        if (!Seen)
          MergedSwitches.push_back(S);
      }
      // Union the diagnostic slices, keeping each warning's trailing
      // notes attached to it. Replay dedups repeated warnings anyway;
      // deduping here keeps the payload from growing on every re-store.
      auto GroupKey = [](const Diagnostic &D) {
        return std::to_string((int)D.Kind) + "|" +
               std::to_string((int)D.ID) + "|" + std::to_string(D.Loc.Line) +
               ":" + std::to_string(D.Loc.Column) + "|" + D.Message;
      };
      std::set<std::string> Have;
      for (const Diagnostic &D : MergedSlice)
        if (D.Kind != DiagKind::Note)
          Have.insert(GroupKey(D));
      bool CopyGroup = false;
      for (const Diagnostic &D : OldSlice) {
        if (D.Kind != DiagKind::Note)
          CopyGroup = Have.insert(GroupKey(D)).second;
        if (CopyGroup)
          MergedSlice.push_back(D);
      }
    }
  }
  Opts.Persist->blocks().store(
      PKey, encodeBlockSummary(MergedOutcome, MergedSlice, MergedSwitches));
}

bool MixyAnalysis::switchesResolvable(
    const std::vector<TypedSwitch> &Switches) const {
  for (const TypedSwitch &S : Switches)
    if (!Program.findFunc(S.Callee))
      return false;
  return true;
}

void MixyAnalysis::replayTypedSwitches(
    const std::vector<TypedSwitch> &Switches, ExecContext C) {
  for (const TypedSwitch &S : Switches) {
    BlockKey Key;
    Key.Symbolic = false;
    Key.F = Program.findFunc(S.Callee);
    Key.Params = S.Params;
    Key.Globals = S.Globals;
    // Same serialization as a live sym-to-typed switch: the typed block
    // runs against the shared qualifier graph.
    std::unique_lock<std::recursive_mutex> Lock(QualM, std::defer_lock);
    if (parallel())
      Lock.lock();
    computeTypedRet(Key, S.Loc, C);
  }
}

// === region collection =======================================================

void MixyAnalysis::collectCallees(const CStmt *S,
                                  std::set<const CFuncDecl *> &Out,
                                  bool &SawIndirect) {
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
    collectCallees(I->thenStmt(), Out, SawIndirect);
    collectCallees(I->elseStmt(), Out, SawIndirect);
    break;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    Exprs.push_back(W->cond());
    collectCallees(W->body(), Out, SawIndirect);
    break;
  }
  case CStmtKind::Return:
    if (cast<CReturnStmt>(S)->value())
      Exprs.push_back(cast<CReturnStmt>(S)->value());
    break;
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      collectCallees(Sub, Out, SawIndirect);
    break;
  }

  CSema Sema(Program, Ctx, Diags);
  while (!Exprs.empty()) {
    const CExpr *E = Exprs.back();
    Exprs.pop_back();
    switch (E->kind()) {
    case CExprKind::Call: {
      const auto *Call = cast<CCall>(E);
      if (const CFuncDecl *F = Sema.directCallee(Call))
        Out.insert(F);
      else {
        SawIndirect = true;
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
      // A function name outside call position: address taken.
      if (Program.findFunc(cast<CIdent>(E)->name()))
        SawIndirect = true;
      break;
    default:
      break;
    }
  }
}

std::set<const CFuncDecl *>
MixyAnalysis::typedRegionFrom(const CFuncDecl *Entry) {
  // BFS over the call graph, stopping at the MIX(symbolic) frontier.
  std::set<const CFuncDecl *> Region;
  std::vector<const CFuncDecl *> Work;
  bool SawIndirect = false;
  Work.push_back(Entry);
  while (!Work.empty()) {
    const CFuncDecl *F = Work.back();
    Work.pop_back();
    if (!F->isDefined() || F->mixAnnot() == MixAnnot::Symbolic)
      continue;
    if (!Region.insert(F).second)
      continue;
    std::set<const CFuncDecl *> Callees;
    collectCallees(F->body(), Callees, SawIndirect);
    for (const CFuncDecl *Callee : Callees)
      Work.push_back(Callee);
  }
  if (SawIndirect) {
    // Calls through function pointers: conservatively include every
    // defined, non-symbolic function whose address could be taken (the
    // paper uses CIL's pointer analysis to find the targets).
    for (const CFuncDecl *F : Program.funcs())
      if (F->isDefined() && F->mixAnnot() != MixAnnot::Symbolic)
        Region.insert(F);
  }
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
    const QualVec &Q = Qual.qualsOfVar(nullptr, G->name());
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

// === parallel-engine plumbing ================================================

MixyAnalysis::WorkerContext &MixyAnalysis::workerContext() {
  int W = Pool->currentWorker();
  std::lock_guard<std::mutex> Lock(SlotsM);
  std::unique_ptr<WorkerContext> &Slot = WorkerSlots[(size_t)W];
  if (!Slot)
    Slot = std::make_unique<WorkerContext>(*this);
  return *Slot;
}

MixyAnalysis::ExecContext MixyAnalysis::currentContext() {
  auto *W = static_cast<WorkerContext *>(ActiveWorkerCtx);
  if (W && W->Owner == this)
    return ExecContext{W->Exec, W->Diags, W->Stack};
  return ExecContext{Exec, Diags, BlockStack};
}

void MixyAnalysis::mergeRoundDiagnostics(
    const std::vector<std::vector<Diagnostic>> &Per) {
  // Append in round-task order (deterministic: tasks are keyed by the
  // round's distinct-context list, not by which worker ran them). Each
  // worker executor already deduplicates its own warnings; the set below
  // extends that across workers with the same location|message key.
  for (const std::vector<Diagnostic> &Slice : Per) {
    bool DropNotes = false;
    for (const Diagnostic &D : Slice) {
      if (D.Kind == DiagKind::Warning) {
        std::string Key = D.Loc.str() + "|" + D.Message;
        DropNotes = !MergedWarnings.insert(Key).second;
        if (DropNotes)
          continue;
      } else if (D.Kind == DiagKind::Note && DropNotes) {
        continue; // notes ride with the warning that owned them
      } else {
        DropNotes = false;
      }
      size_t Idx = Diags.report(D.Kind, D.Loc, D.Message, D.ID);
      if (D.Prov)
        Diags.attachProvenance(Idx, D.Prov);
    }
  }
}

// === symbolic blocks (typed -> symbolic -> typed) ===========================

MixyAnalysis::SymOutcome
MixyAnalysis::translateResult(const CFuncDecl *F, const CSymResult &Result,
                              CSymExecutor &WithExec) {
  // "From Symbolic Values to Types": for each caller-visible pointer slot,
  // ask whether g and (s = 0) is satisfiable and record null if so.
  SymOutcome Outcome;
  Outcome.ParamPointeeMayBeNull.assign(F->params().size(), false);

  for (const CSymResult::PathOut &P : Result.Paths) {
    if (P.Returned && F->returnType()->isPointer() && P.Ret.isPtr() &&
        WithExec.mayBeNull(P.Path, P.Ret))
      Outcome.RetMayBeNull = true;

    for (size_t I = 0; I != F->params().size(); ++I) {
      LocId Pointee = I < Result.ParamPointeeLocs.size()
                          ? Result.ParamPointeeLocs[I]
                          : NoLoc;
      if (Pointee == NoLoc)
        continue;
      auto Cell = CSymExecutor::finalCell(P, Pointee, "");
      if (Cell && Cell->isPtr() && WithExec.mayBeNull(P.Path, *Cell))
        Outcome.ParamPointeeMayBeNull[I] = true;
    }

    for (const CGlobalDecl *G : Program.globals()) {
      if (!G->type()->isPointer())
        continue;
      auto Cell =
          CSymExecutor::finalCell(P, WithExec.globalLoc(G->name()), "");
      if (Cell && Cell->isPtr() && WithExec.mayBeNull(P.Path, *Cell))
        Outcome.GlobalMayBeNull[G->name()] = true;
    }
  }
  return Outcome;
}

MixyAnalysis::SymOutcome
MixyAnalysis::computeSymOutcome(const BlockKey &Key, ExecContext C) {
  bool Persistable = PersistBlocks && FuncClosure.count(Key.F) != 0;
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
  void *PrevLog = nullptr;

  engine::RunHooks<SymOutcome> H;
  H.OnCacheHit = [&](const SymOutcome &) {
    bumpStat(&MixyStats::SymbolicCacheHits);
  };
  // Recursion cut-off (Section 4.4) — detected on this thread's stack;
  // recursion cannot span threads, since a block's nested blocks run on
  // the worker that runs the block.
  H.OnRecursion = [&] { bumpStat(&MixyStats::RecursionsDetected); };
  // Persistent replay (src/persist/). The stable key embeds the
  // function's dependency-closure hash, so entries written before an
  // edit anywhere in this block's dependency cone can never match.
  if (Persistable)
    H.Replay = [&]() -> std::optional<SymOutcome> {
      auto Payload = Opts.Persist->blocks().lookup(PKey);
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
      // Replay the stored run's diagnostics through the executor's
      // warning dedup, mirroring mergeRoundDiagnostics: a warning this
      // context already saw is dropped along with its notes, so warm
      // output matches cold output byte for byte. The slice replays
      // first (it carries the cold emission order, including nested
      // blocks' warnings); the typed switches after it re-seed the
      // qualifier graph, and any diagnostics their nested replays
      // surface deduplicate against the slice.
      bool DropNotes = false;
      for (const Diagnostic &D : Slice) {
        if (D.Kind == DiagKind::Warning) {
          DropNotes = !C.Exec.tryMarkWarningEmitted(D.Loc, D.Message);
          if (DropNotes)
            continue;
        } else if (D.Kind == DiagKind::Note && DropNotes) {
          continue;
        } else {
          DropNotes = false;
        }
        size_t Idx = C.Diags.report(D.Kind, D.Loc, D.Message, D.ID);
        // Re-attach the recorded explanation verbatim — including the
        // disposition the cold run stamped — so --explain output is
        // byte-identical cold vs. warm; only the replay counter tells
        // the runs apart.
        if (D.Prov) {
          C.Diags.attachProvenance(Idx, D.Prov);
          if (Opts.Prov)
            Opts.Prov->countReplay();
        }
      }
      replayTypedSwitches(Switches, C);
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
    DiagsBefore = C.Diags.size();
    // Nested blocks save and restore the log slot so each run logs only
    // its own switches.
    PrevLog = ActiveTypedLog;
    ActiveTypedLog = Persistable ? &SwitchLog : nullptr;
  };
  H.OnIteration = [&](unsigned) { bumpStat(&MixyStats::SymbolicBlockRuns); };
  H.Eval = [&] {
    CSymResult Result = C.Exec.runFunction(Key.F, Key.Params, Key.Globals);
    return translateResult(Key.F, Result, C.Exec);
  };
  H.OnEvalEnd = [&](const SymOutcome &Outcome) {
    ActiveTypedLog = PrevLog;

    if (Opts.Prov) {
      // Stamp every diagnostic this run emitted with the block stack that
      // was live while it ran (the engine has already popped this block,
      // so C.Stack is the enclosing context). Nested block runs already
      // stamped their own (deeper) stack and are left alone; notes
      // inherit their parent's context implicitly.
      std::vector<std::string> StackNames;
      for (const Engine::StackEntry &E : C.Stack)
        StackNames.push_back(E.K.F->name() +
                             (E.Symbolic ? " [symbolic]" : " [typed]"));
      StackNames.push_back(Key.F->name() + " [symbolic]");
      const std::vector<Diagnostic> &All = C.Diags.diagnostics();
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
        C.Diags.attachProvenance(I, std::move(P));
        Opts.Prov->countBlock();
      }
    }

    if (Persistable) {
      const std::vector<Diagnostic> &All = C.Diags.diagnostics();
      std::vector<Diagnostic> Slice(All.begin() + (long)DiagsBefore,
                                    All.end());
      storeBlockSummary(PKey, Outcome, Slice, SwitchLog);
    }
  };

  return Eng.runSymbolic(Key, C.Stack, H);
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
      UnifyTargetsOf(PtrAnal.cellOfVar(Callee, P.Name));
  for (const CGlobalDecl *G : Program.globals())
    if (G->type()->isPointer())
      UnifyTargetsOf(PtrAnal.cellOfVar(nullptr, G->name()));
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
    if (!MayNull)
      continue;
    const QualVec &Q = Qual.qualsOfVar(nullptr, Name);
    if (!Q.empty())
      Qual.seedNull(Q[0],
                    "after " + Callee->name() + ", global " + Name +
                        " may be null",
                    Call->loc(), prov::FlowEdgeKind::MixBoundary);
  }
  restoreAliasing(Callee);
}

bool MixyAnalysis::handleSymbolicCall(QualInference &Inference,
                                      const CCall *Call,
                                      const CFuncDecl *Callee,
                                      const std::vector<QualVec> &ArgQuals,
                                      QualVec &RetQuals) {
  if (!Callee->isDefined())
    return false;
  (void)Inference;

  if (parallel()) {
    auto *W = static_cast<WorkerContext *>(ActiveWorkerCtx);
    if (!W || W->Owner != this) {
      // Main thread, during constraint generation: defer the block to the
      // next round barrier. The fresh, unconstrained result qualifiers are
      // exactly the paper's optimism ("we first optimistically assume it
      // is nonnull", Section 4.1); the fixpoint loop evaluates the block
      // and seeds the constraints it missed.
      std::lock_guard<std::recursive_mutex> Lock(QualM);
      bumpStat(&MixyStats::SymbolicCallsFromTyped);
      RetQuals = freshQuals(Callee->returnType(),
                            "symbolic call " + Callee->name(), Call->loc());
      SymCallSites.push_back({Call, Callee, ArgQuals, RetQuals, BlockKey()});
      return true;
    }
    // Worker thread: a typed block nested inside a symbolic block hit the
    // symbolic frontier again. Run it synchronously on this worker's
    // context; the caller (callTypedFunction) already holds QualM.
    bumpStat(&MixyStats::SymbolicCallsFromTyped);
    BlockKey Key;
    Key.Symbolic = true;
    Key.F = Callee;
    Key.Params = paramSeedsFromArgQuals(Callee, ArgQuals);
    Key.Globals = globalSeedsFromQuals();
    RetQuals = freshQuals(Callee->returnType(),
                          "symbolic call " + Callee->name(), Call->loc());
    SymOutcome Outcome = computeSymOutcome(Key, currentContext());
    applySymOutcome(Outcome, Call, Callee, ArgQuals, RetQuals);
    SymCallSites.push_back({Call, Callee, ArgQuals, RetQuals, Key});
    return true;
  }

  bumpStat(&MixyStats::SymbolicCallsFromTyped);

  BlockKey Key;
  Key.Symbolic = true;
  Key.F = Callee;
  Key.Params = paramSeedsFromArgQuals(Callee, ArgQuals);
  Key.Globals = globalSeedsFromQuals();

  RetQuals = freshQuals(Callee->returnType(),
                        "symbolic call " + Callee->name(), Call->loc());

  SymOutcome Outcome = computeSymOutcome(Key, currentContext());
  applySymOutcome(Outcome, Call, Callee, ArgQuals, RetQuals);

  // Remember the site for the fixpoint loop (Section 4.1).
  SymCallSites.push_back({Call, Callee, ArgQuals, RetQuals, Key});
  return true;
}

// === typed blocks (symbolic -> typed -> symbolic) ===========================

bool MixyAnalysis::computeTypedRet(const BlockKey &Key, SourceLoc CallLoc,
                                   ExecContext C) {
  std::optional<obs::TraceSpan> Span;
  std::optional<obs::PhaseTimer> Timer;

  engine::RunHooks<bool> H;
  H.OnCacheHit = [&](const bool &) { bumpStat(&MixyStats::TypedCacheHits); };
  H.OnRecursion = [&] { bumpStat(&MixyStats::RecursionsDetected); };
  H.OnEvalBegin = [&] {
    Timer.emplace(Opts.Telemetry, obs::Phase::BlockExec);
    Span.emplace(Opts.Trace, "mixy.block.typed", "mixy");
    if (Opts.Trace)
      Span->setArgs("{\"function\": \"" + jsonEscape(Key.F->name()) + "\"}");
  };
  H.OnIteration = [&](unsigned) { bumpStat(&MixyStats::TypedBlockRuns); };
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
      if (Seed != NullSeed::MayBeNull)
        continue;
      const QualVec &GQ = Qual.qualsOfVar(nullptr, Name);
      if (!GQ.empty())
        Qual.seedNull(GQ[0], "global may be null at symbolic call", CallLoc,
                      prov::FlowEdgeKind::MixBoundary);
    }

    Qual.solve();
    const QualVec &RQ = Qual.qualsOfReturn(Key.F);
    return !RQ.empty() && Qual.mayBeNull(RQ[0]);
  };

  return Eng.runTyped(Key, C.Stack, H);
}

bool MixyAnalysis::callTypedFunction(CSymExecutor &Exec2, CSymState &State,
                                     const CCall *Call,
                                     const CFuncDecl *Callee,
                                     const std::vector<CSymValue> &Args,
                                     CSymValue &RetOut) {
  bumpStat(&MixyStats::TypedCallsFromSymbolic);

  BlockKey Key;
  Key.Symbolic = false;
  Key.F = Callee;
  // The calling context from symbolic values: solver queries per pointer
  // argument and per pointer global present in the store. These touch
  // only the calling executor's own state — no lock needed yet.
  for (size_t I = 0; I != Callee->params().size(); ++I) {
    bool MayNull = I < Args.size() && Args[I].isPtr() &&
                   Exec2.mayBeNull(State.Path, Args[I]);
    Key.Params.push_back(MayNull ? NullSeed::MayBeNull : NullSeed::Nonnull);
  }
  for (const CGlobalDecl *G : Program.globals()) {
    if (!G->type()->isPointer())
      continue;
    auto Cell = State.Store.get({Exec2.globalLoc(G->name()), ""});
    if (!Cell || !Cell->isPtr())
      continue;
    Key.Globals[G->name()] = Exec2.mayBeNull(State.Path, *Cell)
                                 ? NullSeed::MayBeNull
                                 : NullSeed::Nonnull;
  }

  // Record the switch for the enclosing block's persistent summary (null
  // slot when the run is not being recorded): a warm replay re-seeds the
  // same qualifier constraints this switch is about to.
  if (auto *Log = static_cast<std::vector<TypedSwitch> *>(ActiveTypedLog))
    Log->push_back({Callee->name(), Key.Params, Key.Globals, Call->loc()});

  // The typed block runs against the shared qualifier graph; in parallel
  // mode every such touch is serialized (recursively — typed and symbolic
  // blocks nest through the hooks).
  std::unique_lock<std::recursive_mutex> Lock(QualM, std::defer_lock);
  if (parallel())
    Lock.lock();

  bool RetMayBeNull = computeTypedRet(Key, Call->loc(), currentContext());

  // Re-entering symbolic execution: memory is havocked ("symbolic blocks
  // are forced to start with a fresh memory when switching from typed
  // blocks", Section 4.6), then pointer globals are re-seeded from the
  // current qualifier solution.
  Exec2.havocStore(State);
  Qual.solve();
  for (const CGlobalDecl *G : Program.globals()) {
    if (!G->type()->isPointer())
      continue;
    const QualVec &Q = Qual.qualsOfVar(nullptr, G->name());
    NullSeed Seed = (!Q.empty() && Qual.mayBeNull(Q[0]))
                        ? NullSeed::MayBeNull
                        : NullSeed::Nonnull;
    State.Store.set({Exec2.globalLoc(G->name()), ""},
                    Exec2.seededPointer(G->type(), Seed, G->name()));
  }

  if (Lock.owns_lock())
    Lock.unlock();

  if (Callee->returnType()->isPointer())
    RetOut = Exec2.seededPointer(Callee->returnType(),
                                 RetMayBeNull ? NullSeed::MayBeNull
                                              : NullSeed::Nonnull,
                                 Callee->name() + "()");
  else
    RetOut = CSymValue::scalar(
        Exec2.terms().freshIntVar(Callee->name() + "()"));
  return true;
}

// === driver ==================================================================

unsigned MixyAnalysis::run(StartMode Mode, const std::string &Entry) {
  PtrAnal.run();
  initPersist();

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
    // calls switch through callTypedFunction. A single symbolic block has
    // no sibling blocks to farm out, so this path is always serial.
    ++Statistics.SymbolicBlockRuns;
    {
      obs::PhaseTimer Timer(Opts.Telemetry, obs::Phase::BlockExec);
      obs::TraceSpan Span(Opts.Trace, "mixy.block.sym", "mixy");
      if (Opts.Trace)
        Span.setArgs("{\"function\": \"" + jsonEscape(EntryFunc->name()) +
                     "\"}");
      CSymResult Result = Exec.runFunction(EntryFunc);
      (void)Result;
    }
    Qual.solve();
    Qual.reportWarnings();
    publishStats();
    return Diags.warningCount();
  }

  if (parallel())
    return runTypedParallel(EntryFunc);

  // Begin in typed mode: qualifier inference over the region reachable
  // from the entry, with symbolic frontier calls via handleSymbolicCall.
  Qual.analyzeGlobals();
  for (const CFuncDecl *F : typedRegionFrom(EntryFunc))
    Qual.analyzeFunction(F);

  // Fixpoint (Section 4.1): re-run symbolic blocks whose calling context
  // changed as constraints accumulated, until nothing changes. The
  // engine driver's serial schedule is the historical Gauss-Seidel loop:
  // each site's evaluation sees every earlier one's effects.
  engine::FixpointConfig FC;
  FC.MaxRounds = Opts.MaxFixpointIterations;
  FC.Trace = Opts.Trace;
  FC.RoundSpanName = "mixy.round";
  FC.SpanCategory = "mixy";
  FC.Metrics = Opts.Metrics;
  FC.Telemetry = Opts.Telemetry;
  engine::FixpointDriver Driver(FC);

  engine::FixpointCallbacks CB;
  CB.NumSites = [&] { return SymCallSites.size(); };
  CB.OnRoundBegin = [&](unsigned) { Qual.solve(); };
  CB.Refresh = [&](size_t I) { return refreshSite(I); };
  CB.EvaluateWave = [&](const std::vector<size_t> &Sites, uint64_t) {
    for (size_t I : Sites) {
      // Copy the key before evaluating: a nested frontier call can grow
      // SymCallSites and invalidate references into it.
      BlockKey Key = SymCallSites[I].LastKey;
      SymOutcome Outcome = computeSymOutcome(Key, currentContext());
      SymCallSite &Site = SymCallSites[I];
      applySymOutcome(Outcome, Site.Call, Site.Callee, Site.ArgQuals,
                      Site.RetQuals);
    }
  };
  Statistics.FixpointIterations += Driver.runSerial(CB);

  Qual.solve();
  Qual.reportWarnings();
  publishStats();
  return Diags.warningCount();
}

bool MixyAnalysis::refreshSite(size_t I) {
  // The worklist schedule refreshes sites from pool workers; every touch
  // of the site table and the qualifier graph (the seed computations
  // solve it) is serialized. Uncontended in the serial and round-barrier
  // schedules, where only one thread refreshes.
  std::lock_guard<std::recursive_mutex> Lock(QualM);
  SymCallSite &Site = SymCallSites[I];
  BlockKey Key;
  Key.Symbolic = true;
  Key.F = Site.Callee;
  Key.Params = paramSeedsFromArgQuals(Site.Callee, Site.ArgQuals);
  Key.Globals = globalSeedsFromQuals();
  if (Site.LastKey.F && Key == Site.LastKey)
    return false;
  Site.LastKey = Key;
  return true;
}

void MixyAnalysis::evaluateWave(const std::vector<size_t> &Sites,
                                uint64_t Tag, bool Buffered) {
  // Distinct calling contexts of the wave, in site order (two sites with
  // the same context share one evaluation — and one diagnostics slice,
  // like one cache entry).
  std::vector<BlockKey> Keys;
  std::vector<std::pair<size_t, size_t>> Apply; // (site, key index)
  {
    std::unique_lock<std::recursive_mutex> Lock(QualM, std::defer_lock);
    if (Buffered)
      Lock.lock(); // other SCCs' workers may be touching the site table
    for (size_t I : Sites) {
      const BlockKey &Key = SymCallSites[I].LastKey;
      size_t KeyIdx = 0;
      while (KeyIdx != Keys.size() && !(Keys[KeyIdx] == Key))
        ++KeyIdx;
      if (KeyIdx == Keys.size())
        Keys.push_back(Key);
      Apply.push_back({I, KeyIdx});
    }
  }

  // Evaluate the wave. Results are carried out of the tasks directly
  // (not via the cache, which may be disabled) and diagnostics are
  // collected per task so their merge order is independent of worker
  // scheduling.
  std::vector<SymOutcome> Outcomes(Keys.size());
  std::vector<std::vector<Diagnostic>> Slices(Keys.size());
  Pool->parallelFor(Keys.size(), [&](size_t K) {
    WorkerContext &W = workerContext();
    void *Prev = ActiveWorkerCtx;
    ActiveWorkerCtx = &W;
    size_t Before = W.Diags.size();
    Outcomes[K] =
        computeSymOutcome(Keys[K], ExecContext{W.Exec, W.Diags, W.Stack});
    const std::vector<Diagnostic> &All = W.Diags.diagnostics();
    Slices[K].assign(All.begin() + (long)Before, All.end());
    ActiveWorkerCtx = Prev;
  });

  if (Buffered) {
    // Worklist: SCCs finish in timing-dependent order, so stash the
    // slices under the deterministic wave tag; runTypedParallel merges
    // them in tag order once the driver returns.
    std::lock_guard<std::mutex> Lock(WaveM);
    WaveDiags.emplace(Tag, std::move(Slices));
  } else {
    // Round barrier: the wave IS the round; merge at the barrier.
    mergeRoundDiagnostics(Slices);
  }

  // Apply summaries in site order.
  {
    std::unique_lock<std::recursive_mutex> Lock(QualM, std::defer_lock);
    if (Buffered)
      Lock.lock();
    for (const auto &[SiteIdx, KeyIdx] : Apply) {
      SymCallSite &Site = SymCallSites[SiteIdx];
      applySymOutcome(Outcomes[KeyIdx], Site.Call, Site.Callee,
                      Site.ArgQuals, Site.RetQuals);
    }
  }
}

bool MixyAnalysis::writesPointerGlobal(
    const CStmt *S, const std::set<std::string> &PtrGlobals) {
  if (!S)
    return false;
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
    if (writesPointerGlobal(I->thenStmt(), PtrGlobals) ||
        writesPointerGlobal(I->elseStmt(), PtrGlobals))
      return true;
    break;
  }
  case CStmtKind::While: {
    const auto *W = cast<CWhileStmt>(S);
    Exprs.push_back(W->cond());
    if (writesPointerGlobal(W->body(), PtrGlobals))
      return true;
    break;
  }
  case CStmtKind::Return:
    if (cast<CReturnStmt>(S)->value())
      Exprs.push_back(cast<CReturnStmt>(S)->value());
    break;
  case CStmtKind::Block:
    for (const CStmt *Sub : cast<CBlockStmt>(S)->stmts())
      if (writesPointerGlobal(Sub, PtrGlobals))
        return true;
    break;
  }

  while (!Exprs.empty()) {
    const CExpr *E = Exprs.back();
    Exprs.pop_back();
    switch (E->kind()) {
    case CExprKind::Assign: {
      const auto *A = cast<CAssign>(E);
      const CExpr *Target = A->target();
      if (Target->kind() == CExprKind::Ident) {
        // Direct store to a named variable: a write only when the name
        // is a pointer global (a shadowing local over-approximates).
        if (PtrGlobals.count(cast<CIdent>(Target)->name()))
          return true;
      } else {
        // Indirect store (*p = ..., p->f = ...): may hit anything.
        return true;
      }
      Exprs.push_back(A->value());
      break;
    }
    case CExprKind::Call: {
      const auto *Call = cast<CCall>(E);
      Exprs.push_back(Call->callee());
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
    case CExprKind::Member:
      Exprs.push_back(cast<CMember>(E)->base());
      break;
    case CExprKind::Cast:
      Exprs.push_back(cast<CCast>(E)->sub());
      break;
    default:
      break;
    }
  }
  return false;
}

std::vector<std::pair<size_t, size_t>> MixyAnalysis::buildSiteGraph() {
  // Called once from the coordinator before any worker starts, so the
  // site table is stable. An edge i -> j means "re-evaluating site i may
  // change site j's calling context". Contexts are built from two
  // sources — the argument qualifiers at the site and the pointer
  // globals' qualifiers — so i influences j when i's summary can move
  // either. Precision is best-effort: the driver's validation sweep
  // reaches the least fixpoint even where these edges under-approximate,
  // and over-approximation only costs parallelism (an all-to-all graph
  // collapses to one SCC, which behaves exactly like the round barrier).
  std::vector<std::pair<size_t, size_t>> Edges;
  size_t N = SymCallSites.size();
  if (N < 2)
    return Edges;

  std::set<std::string> PtrGlobals;
  for (const CGlobalDecl *G : Program.globals())
    if (G->type()->isPointer())
      PtrGlobals.insert(G->name());
  bool AnyPtrGlobal = !PtrGlobals.empty();

  // Alias coupling (Section 4.2): applySymOutcome ends every summary
  // application with restoreAliasing, which unifies the pointee classes
  // of all pointer globals; when such a class holds two or more
  // variables the unification can move qualifiers far from the site.
  bool AliasCoupling = false;
  if (Opts.RestoreAliasing && AnyPtrGlobal) {
    for (const CGlobalDecl *G : Program.globals()) {
      if (!G->type()->isPointer())
        continue;
      PointsToAnalysis::CellId Target =
          PtrAnal.pointsTo(PtrAnal.cellOfVar(nullptr, G->name()));
      if (Target != PointsToAnalysis::NoCell &&
          PtrAnal.variablesInClass(Target).size() >= 2) {
        AliasCoupling = true;
        break;
      }
    }
  }

  bool SawIndirect = false;
  std::map<const CFuncDecl *, std::vector<const CFuncDecl *>> Deps =
      dependencyEdges(SawIndirect);
  std::set<const CFuncDecl *> Writers;
  for (const auto &[F, D] : Deps) {
    (void)D;
    if (F && writesPointerGlobal(F->body(), PtrGlobals))
      Writers.insert(F);
  }

  // Does anything reachable from F (symbolically executed unmarked
  // callees included) write a pointer global?
  auto ClosureWrites = [&](const CFuncDecl *F) {
    std::set<const CFuncDecl *> Visited;
    std::vector<const CFuncDecl *> Work{F};
    while (!Work.empty()) {
      const CFuncDecl *Cur = Work.back();
      Work.pop_back();
      if (!Visited.insert(Cur).second)
        continue;
      if (Writers.count(Cur))
        return true;
      auto It = Deps.find(Cur);
      if (It != Deps.end())
        for (const CFuncDecl *Callee : It->second)
          Work.push_back(Callee);
    }
    return false;
  };

  for (size_t I = 0; I != N; ++I) {
    const CFuncDecl *Callee = SymCallSites[I].Callee;
    // A pointer in the signature feeds summaries straight into the
    // caller's qualifier graph (return quals / argument pointee quals),
    // whose flow we do not track per-site: influence everything.
    bool PtrSignature = Callee->returnType()->isPointer();
    for (const auto &P : Callee->params())
      PtrSignature = PtrSignature || P.Ty->isPointer();
    // A global write anywhere in the block's call cone moves the global
    // seeds, and every site's context includes every pointer global.
    bool Influences =
        PtrSignature || SawIndirect ||
        (AnyPtrGlobal && (AliasCoupling || ClosureWrites(Callee)));
    if (!Influences)
      continue;
    for (size_t J = 0; J != N; ++J)
      if (J != I)
        Edges.emplace_back(I, J);
  }
  return Edges;
}

unsigned MixyAnalysis::runTypedParallel(const CFuncDecl *EntryFunc) {
  // Warm the lazily-built singleton types so workers mostly read the AST
  // context instead of racing to create them.
  Ctx.voidType();
  Ctx.intType();
  Ctx.charType();

  Pool = std::make_unique<rt::ThreadPool>(Opts.Jobs, Opts.Trace, "mixy");
  WorkerSlots.resize(Pool->workerCount());

  // Constraint generation over the typed region. Frontier calls defer
  // their blocks (handleSymbolicCall records the sites with an empty
  // LastKey), so this phase is pure qualifier inference.
  Qual.analyzeGlobals();
  for (const CFuncDecl *F : typedRegionFrom(EntryFunc))
    Qual.analyzeFunction(F);

  // Parallel fixpoint via the engine driver. Worklist (default):
  // condense the static site-dependency graph into SCCs, iterate each
  // SCC to its own fixpoint on the pool, release dependents as soon as
  // their inputs settle, then validate with plain rounds. Round barrier:
  // the historical Jacobi schedule. The constraint system is monotone,
  // so both reach the same least fixpoint as the serial loop.
  engine::FixpointConfig FC;
  FC.MaxRounds = Opts.MaxFixpointIterations;
  FC.Trace = Opts.Trace;
  FC.RoundSpanName = "mixy.round";
  FC.SpanCategory = "mixy";
  FC.Metrics = Opts.Metrics;
  FC.Telemetry = Opts.Telemetry;
  engine::FixpointDriver Driver(FC);

  bool Worklist = Opts.ParallelSchedule == MixyOptions::Schedule::Worklist;
  engine::FixpointCallbacks CB;
  CB.NumSites = [&] { return SymCallSites.size(); };
  CB.OnRoundBegin = [&](unsigned) { Qual.solve(); };
  CB.Refresh = [&](size_t I) { return refreshSite(I); };
  CB.EvaluateWave = [&](const std::vector<size_t> &Sites, uint64_t Tag) {
    evaluateWave(Sites, Tag, Worklist);
  };

  if (Worklist) {
    CB.Edges = [&] { return buildSiteGraph(); };
    Statistics.FixpointIterations += Driver.runWorklist(CB, *Pool);
    // Merge the buffered diagnostic slices in wave-tag order — a pure
    // function of the SCC structure, not of completion timing.
    for (const auto &[Tag, Slices] : WaveDiags) {
      (void)Tag;
      mergeRoundDiagnostics(Slices);
    }
    WaveDiags.clear();
  } else {
    Statistics.FixpointIterations += Driver.runRoundBarrier(CB);
  }

  Qual.solve();
  Qual.reportWarnings();
  publishStats();
  return Diags.warningCount();
}
