//===--- MixEngine.h - The shared mix-engine layer --------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's core claim (Section 3) is that MIX is *one* generic
/// recipe: an off-the-shelf checker, an off-the-shelf symbolic executor,
/// and two boundary rules. This header is that recipe's engine room,
/// factored out of the instantiations so the formal MIX checker
/// (src/mix/), MIXY-for-C (src/mixy/), and the sign mix (src/sign/) all
/// run block analyses through the same machinery:
///
///  - the per-context block cache (Section 4.3) for both block sides:
///    one ordered map per side, which only the engine's thread reaches,
///  - the block stack with recursion cut-off and assumption iteration
///    (Section 4.4): a re-entered block returns the current assumption,
///    and the enclosing evaluation re-runs with the actual result as the
///    updated assumption until the two agree, at most
///    MaxRecursionIterations times,
///  - hooks for persist replay, provenance stamping, tracing, and
///    per-domain metrics, so cross-cutting subsystems attach once here
///    instead of once per instantiation.
///
/// An AnalysisDomain parameter describes what varies between the mixes:
///
///   struct Domain {
///     using Key = ...;          // block + calling context; == and <
///     using SymOutcome = ...;   // symbolic-block summary; ==
///     using TypedOutcome = ...; // typed-block summary; ==
///     static constexpr const char *Name = "...";  // metrics namespace
///   };
///
/// The engine deliberately does not know how a block is *evaluated* —
/// the domain passes an Eval callback per run (the executor invocation
/// for symbolic blocks, the checker invocation for typed blocks). That
/// keeps the boundary translations, which are the interesting per-domain
/// code, in the instantiations where the paper puts them. So is MIXY's
/// fixpoint (Section 4.1), the loop that re-runs blocks whose calling
/// context changed: MixyAnalysis::run owns it.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_ENGINE_MIXENGINE_H
#define MIX_ENGINE_MIXENGINE_H

#include "observe/Metrics.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

namespace mix::engine {

/// A ready-made domain key for AST-based domains: a block's node plus a
/// rendered calling-context signature (Section 4.3's "calling context").
/// The formal MIX checker keys on (BlockExpr, Gamma signature); the sign
/// mix keys on (BlockExpr, SignEnv signature). Domains with richer
/// contexts (MIXY's qualifier seeds) define their own key types.
struct NodeContextKey {
  const void *Node = nullptr;
  std::string Sig;

  bool operator==(const NodeContextKey &O) const {
    return Node == O.Node && Sig == O.Sig;
  }
  bool operator<(const NodeContextKey &O) const {
    return std::tie(Node, Sig) < std::tie(O.Node, O.Sig);
  }
};

/// Counter snapshot of one block cache.
struct BlockCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;

  /// "hits=3 misses=5 inserts=5"-style rendering.
  std::string str() const {
    return "hits=" + std::to_string(Hits) +
           " misses=" + std::to_string(Misses) +
           " inserts=" + std::to_string(Inserts);
  }
};

/// The per-run callbacks a domain supplies to MixEngine::runSymbolic /
/// runTyped. Only Eval is required; every other hook defaults to a
/// no-op, so simple domains pay nothing for the extension points the
/// richer ones (MIXY's persistence and provenance) need.
///
/// Call order for one block run:
///
///   cache lookup  -> OnCacheHit(value), return           (hit)
///   stack scan    -> OnRecursion(), return assumption    (re-entry)
///   Replay()      -> cache insert, return                (persist hit)
///   push(Init())  -> OnEvalBegin()
///   iterate       -> OnIteration(i); Eval()              (Section 4.4)
///   pop           -> OnEvalEnd(value)  [stack() is the caller's again]
///   cache insert when ShouldCache(value)
template <typename V> struct RunHooks {
  /// One evaluation of the block against the current assumption.
  std::function<V()> Eval;
  /// Initial assumption for a fresh stack entry (defaults to V{}).
  std::function<V()> Init;
  /// Cross-run replay (the persistent cache): a non-nullopt result is
  /// used in place of evaluation and inserted into the in-memory cache.
  std::function<std::optional<V>()> Replay;
  /// An in-memory cache hit is about to be returned.
  std::function<void(const V &)> OnCacheHit;
  /// The block re-entered itself (Section 4.4 cut-off).
  std::function<void()> OnRecursion;
  /// An evaluation iteration is starting (0-based).
  std::function<void(unsigned)> OnIteration;
  /// The block was pushed; runs before the first iteration.
  std::function<void()> OnEvalBegin;
  /// The block was popped; runs before the cache insert, with stack()
  /// restored to the caller's view (so provenance can stamp it).
  std::function<void(const V &)> OnEvalEnd;
  /// Whether the final value may be cached (defaults to yes). Domains
  /// that report diagnostics per evaluation return false for failure
  /// outcomes so later calls re-diagnose instead of silently hitting.
  std::function<bool(const V &)> ShouldCache;
  /// Extra stop condition for assumption iteration: returning false ends
  /// the loop even if the assumption has not stabilized (e.g. a failed
  /// evaluation that re-running cannot improve).
  std::function<bool(const V &)> KeepIterating;
};

/// Live engine counters (all registry-backed; inert without a registry):
///   engine.<domain>.blocks       block evaluations begun (cache misses)
///   engine.<domain>.recursions   Section 4.4 stack cut-offs
///   engine.cache.<domain>.hits   in-memory cache hits, both block sides
struct EngineCounters {
  obs::Counter Blocks;
  obs::Counter Recursions;
  obs::Counter CacheHits;
};

/// Assumption-iteration bound (Section 4.4): how many times a block
/// that re-entered itself is evaluated before its last result stands.
inline constexpr unsigned MaxRecursionIterations = 8;

/// The generic mix engine: block cache + block stack + assumption
/// iteration, parameterized over an AnalysisDomain.
///
/// Thread model: one engine analyzes blocks on one thread, so its caches
/// and its block stack take no lock.
template <typename Domain> class MixEngine {
public:
  using Key = typename Domain::Key;
  using SymOutcome = typename Domain::SymOutcome;
  using TypedOutcome = typename Domain::TypedOutcome;

  /// One in-flight block analysis (Section 4.4): the key, whether a
  /// nested analysis re-entered it, and the current assumption for
  /// whichever side the block is on.
  struct StackEntry {
    Key K{};
    bool Symbolic = true;
    bool Recursive = false;
    SymOutcome Sym{};
    TypedOutcome Typed{};
  };

  struct Config {
    /// Cache block results per calling context (Section 4.3).
    bool EnableCache = true;
    obs::MetricsRegistry *Metrics = nullptr;
    /// Counter prefixes of the two caches ("<prefix>hits", "misses",
    /// "inserts"). MIXY keeps its historical "mixy.cache.sym." /
    /// "mixy.cache.typed." names through these.
    std::string SymCachePrefix;
    std::string TypedCachePrefix;
  };

  explicit MixEngine(Config C) : Cfg(std::move(C)) {
    // The cache counters are what *CacheStats() read, so without a
    // registry they count into a private one.
    if (!Cfg.Metrics)
      OwnedMetrics = std::make_unique<obs::MetricsRegistry>();
    obs::MetricsRegistry &Reg = Cfg.Metrics ? *Cfg.Metrics : *OwnedMetrics;
    std::string D(Domain::Name);
    SymCache.attach(Reg, Cfg.SymCachePrefix.empty()
                             ? "engine.cache." + D + ".sym."
                             : Cfg.SymCachePrefix);
    TypedCache.attach(Reg, Cfg.TypedCachePrefix.empty()
                               ? "engine.cache." + D + ".typed."
                               : Cfg.TypedCachePrefix);
    if (Cfg.Metrics) {
      Counters.Blocks = Cfg.Metrics->counter("engine." + D + ".blocks");
      Counters.Recursions =
          Cfg.Metrics->counter("engine." + D + ".recursions");
      Counters.CacheHits = Cfg.Metrics->counter("engine.cache." + D + ".hits");
    }
  }

  /// Runs (or reuses) the symbolic-side analysis of \p K.
  SymOutcome runSymbolic(const Key &K, const RunHooks<SymOutcome> &H) {
    return runImpl<SymOutcome>(K, H, SymCache, &StackEntry::Sym,
                               /*Symbolic=*/true);
  }

  /// Runs (or reuses) the typed-side analysis of \p K.
  TypedOutcome runTyped(const Key &K, const RunHooks<TypedOutcome> &H) {
    return runImpl<TypedOutcome>(K, H, TypedCache, &StackEntry::Typed,
                                 /*Symbolic=*/false);
  }

  /// The block analyses in flight, outermost first (Section 4.4).
  const std::vector<StackEntry> &stack() const { return Stack; }

  BlockCacheStats symCacheStats() const { return SymCache.stats(); }
  BlockCacheStats typedCacheStats() const { return TypedCache.stats(); }

private:
  /// One side's Section 4.3 cache: block summaries per calling context,
  /// ordered by Key's operator<. The first insert of a key wins.
  template <typename V> struct Cache {
    std::map<Key, V> Map;
    obs::Counter Hits, Misses, Inserts;

    void attach(obs::MetricsRegistry &Reg, const std::string &Prefix) {
      Hits = Reg.counter(Prefix + "hits");
      Misses = Reg.counter(Prefix + "misses");
      Inserts = Reg.counter(Prefix + "inserts");
    }
    void insert(const Key &K, const V &Value) {
      if (Map.emplace(K, Value).second)
        Inserts.inc();
    }
    BlockCacheStats stats() const {
      return {Hits.value(), Misses.value(), Inserts.value()};
    }
  };

  template <typename V>
  V runImpl(const Key &K, const RunHooks<V> &H, Cache<V> &C,
            V StackEntry::*Slot, bool Symbolic) {
    if (Cfg.EnableCache) {
      auto It = C.Map.find(K);
      if (It != C.Map.end()) {
        C.Hits.inc();
        Counters.CacheHits.inc();
        if (H.OnCacheHit)
          H.OnCacheHit(It->second);
        return It->second;
      }
      C.Misses.inc();
    }

    // Recursion detection (Section 4.4): the same block with a
    // compatible calling context is already in flight on this stack.
    // Mark the entry so its owner iterates, and answer with the
    // assumption.
    for (StackEntry &Entry : Stack) {
      if (Entry.Symbolic == Symbolic && Entry.K == K) {
        Entry.Recursive = true;
        Counters.Recursions.inc();
        if (H.OnRecursion)
          H.OnRecursion();
        return Entry.*Slot;
      }
    }

    // Cross-run replay (the persistent cache), after the recursion check
    // so a recursive re-entry still returns the in-flight assumption
    // exactly as a cold run would.
    if (H.Replay) {
      if (std::optional<V> Replayed = H.Replay()) {
        if (Cfg.EnableCache && (!H.ShouldCache || H.ShouldCache(*Replayed)))
          C.insert(K, *Replayed);
        return *Replayed;
      }
    }

    Stack.push_back(StackEntry{});
    Stack.back().K = K;
    Stack.back().Symbolic = Symbolic;
    if (H.Init)
      Stack.back().*Slot = H.Init();
    Counters.Blocks.inc();
    if (H.OnEvalBegin)
      H.OnEvalBegin();

    // "If the assumption is compatible with the actual result, we return
    // the result; otherwise, we re-analyze the block using the actual
    // result as the updated assumption." (Section 4.4)
    V Out{};
    for (unsigned Iter = 0; Iter != MaxRecursionIterations; ++Iter) {
      Stack.back().Recursive = false;
      if (H.OnIteration)
        H.OnIteration(Iter);
      Out = H.Eval();
      if (!Stack.back().Recursive || Out == Stack.back().*Slot ||
          (H.KeepIterating && !H.KeepIterating(Out)))
        break;
      Stack.back().*Slot = Out;
    }
    Stack.pop_back();
    if (H.OnEvalEnd)
      H.OnEvalEnd(Out);

    if (Cfg.EnableCache && (!H.ShouldCache || H.ShouldCache(Out)))
      C.insert(K, Out);
    return Out;
  }

  Config Cfg;
  /// The cache counters' registry when Config::Metrics is null.
  std::unique_ptr<obs::MetricsRegistry> OwnedMetrics;
  Cache<SymOutcome> SymCache;
  Cache<TypedOutcome> TypedCache;
  std::vector<StackEntry> Stack;
  EngineCounters Counters;
};

} // namespace mix::engine

#endif // MIX_ENGINE_MIXENGINE_H
