//===--- Mixy.h - The MIXY analysis driver ----------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// MIXY (Section 4): mixes null/nonnull type qualifier inference with the
/// C symbolic executor at function granularity.
///
///  - Analysis starts in typed or symbolic mode at an entry function.
///  - In typed mode, qualifier inference covers every function reachable
///    from the entry "up to the frontier of any functions that are marked
///    with MIX(symbolic)"; each frontier call switches to the symbolic
///    executor through QualSymHook.
///  - In symbolic mode, execution proceeds through unmarked functions and
///    switches to inference at MIX(typed) functions through
///    TypedCallHook.
///  - Translations follow Section 4.1: types to symbolic values seed
///    pointers as nonnull (fresh location) or maybe-null
///    ((alpha ? loc : 0)), with unconstrained qualifier variables treated
///    optimistically as nonnull; symbolic values to types ask the solver
///    whether g and (s = 0) is satisfiable and add null constraints.
///  - Optimism makes a fixpoint necessary: symbolic blocks re-run when
///    later-discovered constraints change their calling context
///    (Section 4.1's two-symbolic-block example).
///  - Aliasing is restored at symbolic-to-typed transitions using the
///    may-points-to pre-pass (Section 4.2).
///  - Block results are cached per compatible calling context
///    (Section 4.3), and recursion between blocks is resolved with a
///    block stack and assumption iteration (Section 4.4) — both provided
///    by the shared engine layer (src/engine/MixEngine.h); MIXY is one of
///    its AnalysisDomain instantiations.
///
/// Parallelism (Jobs > 1): symbolic blocks are independent at their
/// boundaries — all a block exchanges with its caller is a calling
/// context (the BlockKey) and a translated summary (the SymOutcome) — so
/// their evaluations run concurrently on a work-stealing pool, scheduled
/// by the engine fixpoint driver (src/engine/Fixpoint.h). The schedule
/// is the dependency-aware worklist: static dependency edges between
/// frontier call sites (call graph reachability to pointer-global
/// writers, pointer signatures, alias coupling) are condensed into SCCs,
/// each SCC iterates to its own fixpoint, and an SCC's dependents start
/// the moment it stabilizes — a block re-runs as soon as its inputs
/// change instead of waiting for a whole-program round barrier. A final
/// validation sweep (plain Jacobi rounds) guarantees the least fixpoint
/// even where the static edges under-approximate. Frontier calls met
/// during constraint generation are *deferred* to the fixpoint instead of
/// being analyzed inline; that is just more of the optimism the paper
/// already requires a fixpoint for, and the qualifier constraint system
/// is monotone, so the worklist converges to the same least solution as
/// the serial Gauss-Seidel-style loop. Every worker owns its executor,
/// solver, term arena, block stack, and diagnostic buffer; the shared
/// qualifier graph is only touched under a lock (by nested
/// symbolic-to-typed switches and summary application), and per-wave
/// diagnostics are merged in deterministic wave-tag order. With Jobs <= 1
/// the original serial path runs unchanged.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_MIXY_MIXY_H
#define MIX_MIXY_MIXY_H

#include "csym/CSymExecutor.h"
#include "engine/MixEngine.h"
#include "ptranal/PointsTo.h"
#include "qual/QualInference.h"
#include "runtime/ThreadPool.h"
#include "solver/SolverFactory.h"

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

namespace mix::persist {
class PersistSession;
}

namespace mix::c {

// The block cache lives in the shared engine layer now (src/engine/);
// these aliases keep the historical mix::c spellings working.
using engine::BlockCache;
using engine::BlockCacheStats;
using engine::blockCacheShardsFor;

/// Configuration of a MIXY run.
struct MixyOptions {
  /// Cache block analysis results per calling context (Section 4.3).
  bool EnableCache = true;
  /// Restore aliasing relationships via the points-to pre-pass at
  /// symbolic-to-typed transitions (Section 4.2).
  bool RestoreAliasing = true;
  unsigned MaxFixpointIterations = 16;
  unsigned MaxRecursionIterations = 8;
  /// Worker threads for block-level parallelism. 1 (the default) is the
  /// serial engine, byte-for-byte identical to the pre-parallel driver;
  /// N > 1 evaluates independent symbolic blocks on N workers under the
  /// dependency-aware worklist schedule.
  unsigned Jobs = 1;
  CSymOptions Sym;
  QualOptions Qual;
  smt::SmtOptions Smt;
  /// Which solver backend answers feasibility queries. Applies to the
  /// serial solver and every worker's solver alike.
  smt::SolverSpec Solver;

  /// Observability sinks (see src/observe/). The analysis copies these
  /// into Smt (solver counters/latency), the block caches
  /// ("mixy.cache.sym.*" / "mixy.cache.typed.*" counters), and the
  /// thread pool (per-worker task spans); the fixpoint driver adds
  /// "mixy.round" / "mixy.block.sym" / "mixy.block.typed" spans and
  /// publishes the MixyStats fields as "mixy.*" counters when the run
  /// finishes. Null (the default) disables all of it at one branch per
  /// site.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceSink *Trace = nullptr;

  /// Per-request telemetry context (see src/observe/Phase.h). Copied into
  /// Smt and the fixpoint config, so solver queries, fixpoint rounds, and
  /// block boundaries attribute wall time to the request's phase
  /// breakdown. Null — the default — costs one branch per site.
  obs::RequestTelemetry *Telemetry = nullptr;

  /// Provenance recording (see src/provenance/). When attached — the
  /// analysis copies it into Sym and Qual — qualifier warnings carry
  /// their flow chain (with mix-boundary and alias edges labeled),
  /// symbolic-executor warnings carry their witness path, and every
  /// diagnostic a block run emits carries the block stack it came from.
  /// Recorded payloads persist inside block summaries, so warm --cache-dir
  /// runs replay the same explanations. Null records nothing.
  prov::ProvenanceSink *Prov = nullptr;

  /// The persistent cache session behind --cache-dir (see src/persist/).
  /// When set, solver queries are answered from / recorded into the
  /// session's query store; when the session is incremental, symbolic
  /// block summaries (and the diagnostics their runs emitted, replayed
  /// verbatim on a hit) persist across runs too. Null (the default)
  /// keeps every run cold.
  persist::PersistSession *Persist = nullptr;
};

/// Digest of every MixyOptions field that can change a persisted block
/// summary or its diagnostics. Used as the block-store fingerprint: a
/// cache written under different options loads as empty. Deliberately
/// excludes Jobs (results are --jobs-invariant) and the caching knobs
/// themselves.
uint64_t mixyPersistFingerprint(const MixyOptions &Opts);

/// Statistics of a MIXY run.
struct MixyStats {
  unsigned SymbolicBlockRuns = 0;     ///< csym invocations (cache misses)
  unsigned SymbolicCacheHits = 0;
  unsigned TypedBlockRuns = 0;        ///< typed-block summaries computed
  unsigned TypedCacheHits = 0;
  unsigned SymbolicCallsFromTyped = 0;
  unsigned TypedCallsFromSymbolic = 0;
  unsigned FixpointIterations = 0;
  unsigned RecursionsDetected = 0;
};

/// The MIXY analysis.
class MixyAnalysis : public QualSymHook, public TypedCallHook {
public:
  enum class StartMode { Typed, Symbolic };

  MixyAnalysis(const CProgram &Program, CAstContext &Ctx,
               DiagnosticEngine &Diags, MixyOptions Opts = MixyOptions());
  ~MixyAnalysis();

  /// Runs the full analysis from \p Entry. Returns the number of
  /// warnings (qualifier violations plus symbolic-execution warnings).
  unsigned run(StartMode Mode, const std::string &Entry = "main");

  // --- QualSymHook: typed-to-symbolic switching (Section 4.1) -----------
  bool handleSymbolicCall(QualInference &Inference, const CCall *Call,
                          const CFuncDecl *Callee,
                          const std::vector<QualVec> &ArgQuals,
                          QualVec &RetQuals) override;

  // --- TypedCallHook: symbolic-to-typed switching ------------------------
  bool callTypedFunction(CSymExecutor &Exec, CSymState &State,
                         const CCall *Call, const CFuncDecl *Callee,
                         const std::vector<CSymValue> &Args,
                         CSymValue &RetOut) override;

  const MixyStats &stats() const { return Statistics; }
  QualInference &qualifiers() { return Qual; }
  CSymExecutor &executor() { return Exec; }
  PointsToAnalysis &pointsTo() { return PtrAnal; }

  /// Counters of the sharded symbolic-block cache (Section 4.3).
  BlockCacheStats symCacheStats() const { return Eng.symCacheStats(); }
  /// Counters of the sharded typed-block cache.
  BlockCacheStats typedCacheStats() const { return Eng.typedCacheStats(); }

private:
  /// Identity of a block analysis: the block plus its calling context,
  /// "the types for all variables that will be translated into symbolic
  /// values" (Section 4.3).
  struct BlockKey {
    bool Symbolic = true;
    const CFuncDecl *F = nullptr;
    std::vector<NullSeed> Params;
    std::map<std::string, NullSeed> Globals;

    bool operator<(const BlockKey &O) const {
      return std::tie(Symbolic, F, Params, Globals) <
             std::tie(O.Symbolic, O.F, O.Params, O.Globals);
    }
    bool operator==(const BlockKey &O) const {
      return Symbolic == O.Symbolic && F == O.F && Params == O.Params &&
             Globals == O.Globals;
    }
  };

  /// Stripe selector for the sharded caches (only placement, never
  /// identity: shards compare keys with operator<).
  struct BlockKeyHash {
    size_t operator()(const BlockKey &K) const {
      size_t H = hashCombine(std::hash<const void *>()(K.F), K.Symbolic);
      for (NullSeed S : K.Params)
        H = hashCombine(H, (size_t)S);
      for (const auto &[Name, Seed] : K.Globals)
        H = hashCombine(hashCombine(H, std::hash<std::string>()(Name)),
                        (size_t)Seed);
      return H;
    }
  };

  /// The caller-visible summary of one symbolic block run ("we cache the
  /// translated types", Section 4.3).
  struct SymOutcome {
    bool RetMayBeNull = false;
    std::vector<bool> ParamPointeeMayBeNull;
    std::map<std::string, bool> GlobalMayBeNull;

    bool operator==(const SymOutcome &O) const {
      return RetMayBeNull == O.RetMayBeNull &&
             ParamPointeeMayBeNull == O.ParamPointeeMayBeNull &&
             GlobalMayBeNull == O.GlobalMayBeNull;
    }
  };

  /// One sym-to-typed switch a symbolic block run performed, recorded so
  /// a persisted summary can replay it: the typed block seeded the shared
  /// qualifier graph (parameter/global null sources), and a warm hit must
  /// reproduce those constraints or the end-of-run qualifier solution
  /// would differ from a cold run. Seeding is monotone, so replay order
  /// does not matter.
  struct TypedSwitch {
    std::string Callee;
    std::vector<NullSeed> Params;
    std::map<std::string, NullSeed> Globals;
    SourceLoc Loc;
  };

  /// One frontier call site, remembered for the fixpoint loop. LastKey.F
  /// is null until the site's block has been analyzed at least once (the
  /// deferred state of the parallel engine).
  struct SymCallSite {
    const CCall *Call;
    const CFuncDecl *Callee;
    std::vector<QualVec> ArgQuals;
    QualVec RetQuals;
    BlockKey LastKey;
  };

  /// MIXY's instantiation of the shared engine's AnalysisDomain concept
  /// (src/engine/MixEngine.h): the engine owns the per-context caches,
  /// the recursion stack, and the assumption iteration; MIXY supplies
  /// the key/outcome types and the evaluation hooks.
  struct EngineDomain {
    using Key = BlockKey;
    using KeyHash = BlockKeyHash;
    using SymOutcome = MixyAnalysis::SymOutcome;
    using TypedOutcome = bool;
    static constexpr const char *Name = "mixy";
  };
  using Engine = engine::MixEngine<EngineDomain>;

  /// The per-thread slice of analysis state a block evaluation runs
  /// against: an executor (with its solver and term arena behind it), the
  /// diagnostics sink for that executor, and the recursion stack. The
  /// serial engine binds these to the analysis-owned members; parallel
  /// workers bind them to their own WorkerContext.
  struct ExecContext {
    CSymExecutor &Exec;
    DiagnosticEngine &Diags;
    Engine::BlockStack &Stack;
  };

  /// Everything one pool worker owns privately (defined in Mixy.cpp).
  struct WorkerContext;

  // Region handling.
  std::set<const CFuncDecl *> typedRegionFrom(const CFuncDecl *Entry);
  void collectCallees(const CStmt *S, std::set<const CFuncDecl *> &Out,
                      bool &SawIndirect);

  // Context computation (Section 4.1 / 4.3).
  std::vector<NullSeed>
  paramSeedsFromArgQuals(const CFuncDecl *Callee,
                         const std::vector<QualVec> &ArgQuals);
  std::map<std::string, NullSeed> globalSeedsFromQuals();

  // Symbolic-block execution and translation.
  SymOutcome computeSymOutcome(const BlockKey &Key, ExecContext C);
  SymOutcome translateResult(const CFuncDecl *F, const CSymResult &Result,
                             CSymExecutor &WithExec);
  void applySymOutcome(const SymOutcome &Outcome, const CCall *Call,
                       const CFuncDecl *Callee,
                       const std::vector<QualVec> &ArgQuals,
                       QualVec &RetQuals);
  void restoreAliasing(const CFuncDecl *Callee);

  // Typed-block execution (from the symbolic side). \p CallLoc anchors
  // the null-seed notes (the call site, or the persisted location when a
  // recorded switch is replayed).
  bool computeTypedRet(const BlockKey &Key, SourceLoc CallLoc, ExecContext C);

  // --- persistent cache / incremental engine (src/persist/) --------------
  /// Computes per-function content and dependency-closure hashes, primes
  /// the session manifest, and publishes the incremental dirty-set
  /// metrics. Runs once per analysis, after the points-to pre-pass.
  void initPersist();
  /// The cross-run identity of a block analysis: closure hash of the
  /// function (so any edit in its dependency cone misses by
  /// construction) plus the calling context.
  uint64_t stableBlockKey(const BlockKey &Key) const;
  /// Serializes a summary plus the diagnostics and typed switches its
  /// block run emitted.
  std::string encodeBlockSummary(const SymOutcome &Outcome,
                                 const std::vector<Diagnostic> &Slice,
                                 const std::vector<TypedSwitch> &Switches)
      const;
  bool decodeBlockSummary(const std::string &Payload, SymOutcome &Outcome,
                          std::vector<Diagnostic> &Slice,
                          std::vector<TypedSwitch> &Switches) const;
  /// Writes a block summary, merging with whatever is already stored
  /// under \p PKey. A parallel cold run can evaluate the same calling
  /// context more than once against different snapshots of the shared
  /// qualifier state, and the outcomes differ; the qualifier graph saw
  /// the *union* of those seedings, so the persisted summary must carry
  /// the union too (the facts are monotone may-be-null bits, so the
  /// merge is an OR). A last-write-wins store here loses warnings on
  /// warm parallel replay.
  void storeBlockSummary(uint64_t PKey, const SymOutcome &Outcome,
                         const std::vector<Diagnostic> &Slice,
                         const std::vector<TypedSwitch> &Switches);
  /// Does every recorded callee still resolve? (Always true when the
  /// closure hash matched; a summary that fails this is stale and the
  /// block re-runs cold.)
  bool switchesResolvable(const std::vector<TypedSwitch> &Switches) const;
  /// Re-runs the recorded typed switches of a persisted block through the
  /// regular typed-block path, restoring the qualifier-graph constraints
  /// the cold run seeded.
  void replayTypedSwitches(const std::vector<TypedSwitch> &Switches,
                           ExecContext C);

  /// Fresh, unconstrained qualifier variables shaped like \p Ty.
  QualVec freshQuals(const CType *Ty, const std::string &Description,
                     SourceLoc Loc);

  // --- parallel engine ---------------------------------------------------
  bool parallel() const { return Opts.Jobs > 1; }
  /// The calling thread's context: its WorkerContext when on a pool
  /// worker of this analysis, the serial members otherwise.
  ExecContext currentContext();
  /// Lazily builds the calling pool worker's private context.
  WorkerContext &workerContext();
  /// The typed-start driver for Jobs > 1. Seats the fixpoint on
  /// engine::FixpointDriver's dependency-aware worklist.
  unsigned runTypedParallel(const CFuncDecl *EntryFunc);
  /// Builds the engine configuration (cache sharding, recursion budget,
  /// metrics prefixes) from the analysis options.
  static Engine::Config engineConfig(const MixyOptions &O);
  /// Recomputes site I's calling context from the current qualifier
  /// solution. Returns true (and updates LastKey) when it changed.
  bool refreshSite(size_t I);
  /// Evaluates one wave of changed sites: distinct calling contexts run
  /// concurrently on the pool, then summaries are applied in site order.
  /// The wave's diagnostic slices are stashed under Tag for a
  /// post-fixpoint merge in tag order.
  void evaluateWave(const std::vector<size_t> &Sites, uint64_t Tag);
  /// Static dependency edges between frontier call sites for the
  /// worklist schedule: site I influences site J when I's summary can
  /// move J's calling context (pointer signature, reachable
  /// pointer-global writer, alias coupling, or indirect calls). Sound
  /// over-approximation is not required — the driver's validation sweep
  /// catches anything these edges miss.
  std::vector<std::pair<size_t, size_t>> buildSiteGraph();
  /// Direct call-graph edges between defined functions, shared by the
  /// persistent-cache closure hashes and the site graph. When an indirect
  /// call makes the callee set unknowable, every function's only edge
  /// goes to a hub node, the null key, whose edges go to every defined
  /// function: all-to-all reachability in linear size.
  std::map<const CFuncDecl *, std::vector<const CFuncDecl *>>
  dependencyEdges(bool &SawIndirect);
  /// May \p S store to any pointer-typed global in \p PtrGlobals? Any
  /// indirect store counts conservatively.
  bool writesPointerGlobal(const CStmt *S,
                           const std::set<std::string> &PtrGlobals);
  /// Appends a round's worker diagnostics to the shared engine in
  /// deterministic order, deduplicating warnings across workers the same
  /// way one executor deduplicates across runs.
  void mergeRoundDiagnostics(const std::vector<std::vector<Diagnostic>> &Per);
  void bumpStat(unsigned MixyStats::*Field);
  /// Mirrors the final MixyStats into the metrics registry (no-op without
  /// one) so --stats / --metrics render from the same source.
  void publishStats();

  const CProgram &Program;
  CAstContext &Ctx;
  DiagnosticEngine &Diags;
  MixyOptions Opts;

  smt::TermArena Terms;
  std::unique_ptr<smt::ISolver> Solver;
  PointsToAnalysis PtrAnal;
  QualInference Qual;
  CSymExecutor Exec;

  /// The shared mix engine: block caches, recursion stack discipline,
  /// and assumption iteration (Sections 4.3 / 4.4).
  Engine Eng;

  /// The serial thread's recursion stack (workers own theirs).
  Engine::BlockStack BlockStack;

  std::vector<SymCallSite> SymCallSites;

  // Persistent-cache state (read-only after initPersist, so workers need
  // no lock).
  bool PersistReady = false;
  bool PersistBlocks = false;
  std::map<const CFuncDecl *, uint64_t> FuncClosure;

  // Parallel-engine state. QualM serializes every touch of the shared
  // qualifier graph (and shared diagnostics) from worker threads; it is
  // recursive because symbolic and typed blocks nest through the hooks.
  std::unique_ptr<rt::ThreadPool> Pool;
  std::vector<std::unique_ptr<WorkerContext>> WorkerSlots;
  std::recursive_mutex QualM;
  std::mutex SlotsM;
  std::mutex StatsM;
  // Serializes storeBlockSummary's read-merge-write of a persisted block
  // summary, so concurrent evaluations of one calling context can't lose
  // each other's contributions.
  std::mutex PersistStoreM;
  std::set<std::string> MergedWarnings;

  // Worklist-schedule diagnostic buffering: wave tag -> per-context
  // diagnostic slices, merged in tag order after the driver returns so
  // the merged stream is independent of SCC completion timing.
  std::mutex WaveM;
  std::map<uint64_t, std::vector<std::vector<Diagnostic>>> WaveDiags;

  MixyStats Statistics;
};

} // namespace mix::c

#endif // MIX_MIXY_MIXY_H
