//===--- BlockCache.h - Block-summary cache ---------------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4.3 cache — "we cache the translated types" of each block
/// per compatible calling context: one ordered map under one mutex.
///
/// Semantics under races: first insert for a key wins and later inserts
/// of the same key are dropped (block outcomes are deterministic per key,
/// so the dropped value is identical — the insert is "lost" only as work,
/// never as information).
///
/// This lives in the shared engine layer (src/engine/) so every mix
/// instantiation — formal MIX, MIXY-for-C, the sign mix — caches block
/// summaries through one implementation.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_ENGINE_BLOCKCACHE_H
#define MIX_ENGINE_BLOCKCACHE_H

#include "observe/Metrics.h"

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

namespace mix::engine {

/// Counter snapshot of one cache.
struct BlockCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t DroppedInserts = 0; ///< insert raced an existing entry

  /// "hits=3 misses=5 inserts=5 dropped=0"-style rendering.
  std::string str() const;
};

/// A map from block calling contexts to block summaries, ordered by
/// \p Key's operator< (the analysis keys already define it).
///
/// Counters are registry-backed (src/observe/): pass a MetricsRegistry
/// and a name prefix to surface "<prefix>hits", "<prefix>misses",
/// "<prefix>inserts" and "<prefix>dropped" in that registry — the same
/// numbers --stats renders and --trace/--metrics export, by
/// construction. Without a registry the cache owns a private one, so
/// stats() always works.
template <typename Key, typename Value> class BlockCache {
public:
  explicit BlockCache(obs::MetricsRegistry *Metrics = nullptr,
                      const std::string &Prefix = "blockcache.") {
    if (!Metrics) {
      OwnedMetrics = std::make_unique<obs::MetricsRegistry>(1);
      Metrics = OwnedMetrics.get();
    }
    CHits = Metrics->counter(Prefix + "hits");
    CMisses = Metrics->counter(Prefix + "misses");
    CInserts = Metrics->counter(Prefix + "inserts");
    CDropped = Metrics->counter(Prefix + "dropped");
  }

  /// Returns the cached summary for \p K, or nullopt on a miss.
  std::optional<Value> lookup(const Key &K) {
    std::unique_lock<std::mutex> Lock(M);
    auto It = Map.find(K);
    if (It == Map.end()) {
      Lock.unlock();
      CMisses.inc();
      return std::nullopt;
    }
    std::optional<Value> Out = It->second;
    Lock.unlock();
    CHits.inc();
    return Out;
  }

  /// Inserts \p K -> \p V. Returns true when this call created the entry;
  /// false when another insert got there first (the existing entry is
  /// kept — summaries are deterministic per key).
  bool insert(const Key &K, Value V) {
    std::unique_lock<std::mutex> Lock(M);
    bool Fresh = Map.emplace(K, std::move(V)).second;
    Lock.unlock();
    if (Fresh)
      CInserts.inc();
    else
      CDropped.inc();
    return Fresh;
  }

  size_t size() const {
    std::lock_guard<std::mutex> Lock(M);
    return Map.size();
  }

  void clear() {
    std::lock_guard<std::mutex> Lock(M);
    Map.clear();
  }

  /// Counter totals, read from the backing registry. Call at a barrier
  /// for exact numbers (increments are relaxed atomics on sharded slots).
  BlockCacheStats stats() const {
    BlockCacheStats Total;
    Total.Hits = CHits.value();
    Total.Misses = CMisses.value();
    Total.Inserts = CInserts.value();
    Total.DroppedInserts = CDropped.value();
    return Total;
  }

private:
  mutable std::mutex M;
  std::map<Key, Value> Map;
  /// Fallback registry when none was supplied (keeps stats() total).
  std::unique_ptr<obs::MetricsRegistry> OwnedMetrics;
  obs::Counter CHits, CMisses, CInserts, CDropped;
};

} // namespace mix::engine

#endif // MIX_ENGINE_BLOCKCACHE_H
