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
///    (Section 4.1's two-symbolic-block example). run() loops over the
///    frontier call sites in a fixed order, each evaluation seeing every
///    earlier one's effects, for at most MaxFixpointRounds rounds; a run
///    that reaches the cap with a context still changing says so with an
///    ExecBudget (MIX303) warning instead of reporting a truncated
///    result as clean. So does a symbolic block run that the executor's
///    loop, path or call-depth bound cut short.
///  - Aliasing is restored at symbolic-to-typed transitions using the
///    may-points-to pre-pass (Section 4.2).
///  - Block results are cached per compatible calling context
///    (Section 4.3), and recursion between blocks is resolved with a
///    block stack and assumption iteration (Section 4.4) — both provided
///    by the shared engine layer (src/engine/MixEngine.h); MIXY is one of
///    its AnalysisDomain instantiations.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_MIXY_MIXY_H
#define MIX_MIXY_MIXY_H

#include "csym/CSymExecutor.h"
#include "engine/MixEngine.h"
#include "ptranal/PointsTo.h"
#include "qual/QualInference.h"
#include "solver/SolverFactory.h"

#include <map>
#include <memory>
#include <string>
#include <vector>

namespace mix::persist {
class PersistSession;
}

namespace mix::c {

// The block cache lives in the shared engine layer now (src/engine/);
// this alias keeps the historical mix::c spelling working.
using engine::BlockCacheStats;

/// Configuration of a MIXY run.
struct MixyOptions {
  /// Cache block analysis results per calling context (Section 4.3).
  bool EnableCache = true;
  /// Restore aliasing relationships via the points-to pre-pass at
  /// symbolic-to-typed transitions (Section 4.2).
  bool RestoreAliasing = true;
  CSymOptions Sym;
  QualOptions Qual;
  smt::SmtOptions Smt;
  /// Which solver backend answers feasibility queries.
  smt::SolverSpec Solver;

  /// Observability sinks (see src/observe/). The analysis copies these
  /// into Smt (solver counters/latency) and the block caches
  /// ("mixy.cache.sym.*" / "mixy.cache.typed.*" counters); it adds
  /// "mixy.round" / "mixy.block.sym" / "mixy.block.typed" spans and the
  /// "engine.fixpoint.*" counters, and adds the MixyStats fields to the
  /// "mixy.*" counters when the run finishes. Null (the default)
  /// disables all of it at one branch per site.
  obs::MetricsRegistry *Metrics = nullptr;
  obs::TraceSink *Trace = nullptr;

  /// Per-request telemetry context (see src/observe/Phase.h). Copied into
  /// Smt, so solver queries, the fixpoint loop, and block boundaries
  /// attribute wall time to the request's phase breakdown. Null — the
  /// default — costs one branch per site.
  obs::RequestTelemetry *Telemetry = nullptr;

  /// Provenance recording (see src/provenance/). When attached — the
  /// analysis copies it into Sym and Qual — qualifier warnings carry
  /// their flow chain (with mix-boundary and alias edges labeled),
  /// symbolic-executor warnings carry their witness path, and every
  /// diagnostic a block run emits carries the block stack it came from.
  /// Recorded payloads persist inside block summaries, so warm --cache-dir
  /// runs replay the same explanations. Null records nothing.
  prov::ProvenanceSink *Prov = nullptr;

  /// The persistent cache session behind --cache-dir and a warm daemon
  /// (see src/persist/). When set, symbolic block summaries (and the
  /// diagnostics their runs emitted, replayed verbatim on a hit) persist
  /// across runs. Null (the default) keeps every run cold.
  persist::PersistSession *Persist = nullptr;
};

/// Digest of every MixyOptions field that can change a persisted block
/// summary or its diagnostics. Used as the block-store fingerprint: a
/// cache written under different options loads as empty. Deliberately
/// excludes the caching knobs themselves.
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

  /// Fixpoint round cap (Section 4.1).
  static constexpr unsigned MaxFixpointRounds = 16;

  MixyAnalysis(const CProgram &Program, CAstContext &Ctx,
               DiagnosticEngine &Diags, MixyOptions Opts = MixyOptions());
  ~MixyAnalysis();

  /// Runs the full analysis from \p Entry. Returns the number of
  /// warnings (qualifier violations plus symbolic-execution warnings,
  /// the latter once per location and message).
  unsigned run(StartMode Mode, const std::string &Entry = "main");

  // --- QualSymHook: typed-to-symbolic switching (Section 4.1) -----------
  bool handleSymbolicCall(const CCall *Call, const CFuncDecl *Callee,
                          const std::vector<QualVec> &ArgQuals,
                          QualVec &RetQuals) override;

  // --- TypedCallHook: symbolic-to-typed switching ------------------------
  bool callTypedFunction(CSymState &State, const CCall *Call,
                         const CFuncDecl *Callee,
                         const std::vector<CSymValue> &Args,
                         CSymValue &RetOut) override;

  const MixyStats &stats() const { return Statistics; }
  QualInference &qualifiers() { return Qual; }
  CSymExecutor &executor() { return Exec; }
  PointsToAnalysis &pointsTo() { return PtrAnal; }

  /// Counters of the symbolic-block cache (Section 4.3).
  BlockCacheStats symCacheStats() const { return Eng.symCacheStats(); }
  /// Counters of the typed-block cache.
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

  /// One frontier call site, remembered for the fixpoint loop, with the
  /// calling context its block was last analyzed under.
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
    using SymOutcome = MixyAnalysis::SymOutcome;
    using TypedOutcome = bool;
    static constexpr const char *Name = "mixy";
  };
  using Engine = engine::MixEngine<EngineDomain>;

  /// What one function's body calls: its direct callees in declaration
  /// order, and whether it calls through a pointer or names a function
  /// outside a call (either way, any function may be a callee).
  struct CallSummary {
    std::vector<const CFuncDecl *> Callees;
    bool Indirect = false;
  };

  // Region handling. The region comes back in declaration order, which
  // is the order its functions are analyzed in and so the order their
  // frontier calls register fixpoint sites: a property of the program,
  // never of heap addresses.
  std::vector<const CFuncDecl *> typedRegionFrom(const CFuncDecl *Entry);
  /// Summarizes the calls of every defined function, once per analysis.
  void summarizeCalls();
  void collectCallees(const CStmt *S, const CSema &Sema, CallSummary &Out);

  // Context computation (Section 4.1 / 4.3).
  std::vector<NullSeed>
  paramSeedsFromArgQuals(const CFuncDecl *Callee,
                         const std::vector<QualVec> &ArgQuals);
  std::map<std::string, NullSeed> globalSeedsFromQuals();

  // Symbolic-block execution and translation.
  SymOutcome computeSymOutcome(const BlockKey &Key);
  SymOutcome translateResult(const CFuncDecl *F, const CSymResult &Result);
  void applySymOutcome(const SymOutcome &Outcome, const CCall *Call,
                       const CFuncDecl *Callee,
                       const std::vector<QualVec> &ArgQuals,
                       QualVec &RetQuals);
  void restoreAliasing(const CFuncDecl *Callee);

  // Typed-block execution (from the symbolic side). \p CallLoc anchors
  // the null-seed notes (the call site, or the persisted location when a
  // recorded switch is replayed).
  bool computeTypedRet(const BlockKey &Key, SourceLoc CallLoc);

  // --- persistent cache (src/persist/) -----------------------------------
  /// Computes the per-function dependency-closure hashes. Runs once per
  /// analysis, after the points-to pre-pass.
  void initPersist();
  /// The cross-run identity of a block analysis: the function's name and
  /// closure hash (so any edit in its dependency cone misses by
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
  /// Does every recorded callee still resolve? (Always true when the
  /// closure hash matched; a summary that fails this is stale and the
  /// block re-runs cold.)
  bool switchesResolvable(const std::vector<TypedSwitch> &Switches) const;
  /// Re-runs the recorded typed switches of a persisted block through the
  /// regular typed-block path, restoring the qualifier-graph constraints
  /// the cold run seeded.
  void replayTypedSwitches(const std::vector<TypedSwitch> &Switches);

  /// Fresh, unconstrained qualifier variables shaped like \p Ty.
  QualVec freshQuals(const CType *Ty, const std::string &Description,
                     SourceLoc Loc);

  /// Builds the engine configuration (block cache switch, metrics
  /// prefixes) from the analysis options.
  static Engine::Config engineConfig(const MixyOptions &O);
  /// Recomputes site I's calling context from the current qualifier
  /// solution. Returns true (and updates LastKey) when it changed.
  bool refreshSite(size_t I);
  /// Dependency edges between defined functions, for the persistent-cache
  /// closure hashes: each function's direct callees and qualifier-alias
  /// neighbors. A function that calls through a pointer also gets an
  /// edge to a hub node, the null key, whose edges go to every defined
  /// function: reachability of every function in linear size.
  std::map<const CFuncDecl *, std::vector<const CFuncDecl *>>
  dependencyEdges();
  /// Adds this run's MixyStats and the executor's, points-to and
  /// qualifier work counters into the metrics registry (no-op without
  /// one) so --stats / --metrics render from the same source.
  void publishStats();
  /// Emits one MIX303 warning at \p F when its run was cut short by the
  /// loop bound, the path budget or the call depth: a truncated block
  /// must not pass as clean.
  void warnIfTruncated(const CFuncDecl *F, const CSymResult &Result);

  const CProgram &Program;
  CAstContext &Ctx;
  DiagnosticEngine &Diags;
  MixyOptions Opts;

  smt::TermArena Terms;
  std::unique_ptr<smt::ISolver> Solver;
  PointsToAnalysis PtrAnal;
  QualInference Qual;
  CSymExecutor Exec;

  /// The shared mix engine: block caches, the block stack, and
  /// assumption iteration (Sections 4.3 / 4.4).
  Engine Eng;

  std::vector<SymCallSite> SymCallSites;

  /// Call summaries by CFuncDecl::index(), and every defined, non-symbolic
  /// function in declaration order: the typed region once an indirect
  /// call is reachable. Filled by summarizeCalls().
  std::vector<CallSummary> Calls;
  std::vector<const CFuncDecl *> TypedFuncs;
  bool CallsSummarized = false;

  /// The typed-switch log of the innermost persistable symbolic block
  /// run, or null when the current run is not being recorded.
  /// computeSymOutcome saves and restores it around each block, so
  /// nested blocks log to their own summaries.
  std::vector<TypedSwitch> *ActiveTypedLog = nullptr;

  // Persistent-cache state (read-only after initPersist).
  bool PersistReady = false;
  std::map<const CFuncDecl *, uint64_t> FuncClosure;

  MixyStats Statistics;
};

} // namespace mix::c

#endif // MIX_MIXY_MIXY_H
