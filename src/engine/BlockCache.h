//===--- BlockCache.h - Sharded block-summary cache -------------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The Section 4.3 cache — "we cache the translated types" of each block
/// per compatible calling context — made safe for concurrent block
/// analyses. The key space is sharded and each shard carries its own
/// mutex, so lookups and inserts from different workers only contend when
/// they hash to the same stripe.
///
/// Semantics under races: first insert for a key wins and later inserts
/// of the same key are dropped (block outcomes are deterministic per key,
/// so the dropped value is identical — the insert is "lost" only as work,
/// never as information). An optional per-shard capacity evicts oldest
/// entries first; evictions only cost re-analysis, never soundness, which
/// is exactly the contract of the paper's cache.
///
/// This lives in the shared engine layer (src/engine/) so every mix
/// instantiation — formal MIX, MIXY-for-C, the sign mix — caches block
/// summaries through one implementation.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_ENGINE_BLOCKCACHE_H
#define MIX_ENGINE_BLOCKCACHE_H

#include "observe/Metrics.h"
#include "support/Hash.h"

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace mix::engine {

/// Counter snapshot of one cache (summed over shards).
struct BlockCacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t DroppedInserts = 0; ///< insert raced an existing entry
  uint64_t Evictions = 0;

  /// "hits=3 misses=5 inserts=5 evictions=0"-style rendering.
  std::string str() const;
};

/// A mutex-striped map from block calling contexts to block summaries.
///
/// \p Hash only selects the stripe; within a stripe, \p Key's operator<
/// orders the entries (the analysis keys already define it).
///
/// Counters are registry-backed (src/observe/): pass a MetricsRegistry
/// and a name prefix to surface "<prefix>hits", "<prefix>misses",
/// "<prefix>inserts", "<prefix>dropped", and "<prefix>evictions" in that
/// registry — the same numbers --stats renders and --trace/--metrics
/// export, by construction. Without a registry the cache owns a private
/// one, so stats() always works.
template <typename Key, typename Value, typename Hash = std::hash<Key>>
class BlockCache {
public:
  /// \p Shards is rounded up to a power of two; \p MaxEntriesPerShard of
  /// 0 means unbounded.
  explicit BlockCache(unsigned Shards = 16, size_t MaxEntriesPerShard = 0,
                      Hash Hasher = Hash(),
                      obs::MetricsRegistry *Metrics = nullptr,
                      const std::string &Prefix = "blockcache.")
      : MaxPerShard(MaxEntriesPerShard), Hasher(Hasher) {
    unsigned N = 1;
    while (N < Shards)
      N <<= 1;
    Stripes = std::vector<Shard>(N);
    if (!Metrics) {
      OwnedMetrics = std::make_unique<obs::MetricsRegistry>(N);
      Metrics = OwnedMetrics.get();
    }
    CHits = Metrics->counter(Prefix + "hits");
    CMisses = Metrics->counter(Prefix + "misses");
    CInserts = Metrics->counter(Prefix + "inserts");
    CDropped = Metrics->counter(Prefix + "dropped");
    CEvictions = Metrics->counter(Prefix + "evictions");
  }

  /// Returns the cached summary for \p K, or nullopt on a miss.
  std::optional<Value> lookup(const Key &K) {
    Shard &S = shardFor(K);
    std::unique_lock<std::mutex> Lock(S.M);
    auto It = S.Map.find(K);
    if (It == S.Map.end()) {
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
    Shard &S = shardFor(K);
    std::unique_lock<std::mutex> Lock(S.M);
    auto [It, Fresh] = S.Map.emplace(K, std::move(V));
    if (!Fresh) {
      Lock.unlock();
      CDropped.inc();
      return false;
    }
    S.Order.push_back(K);
    bool Evicted = false;
    if (MaxPerShard != 0 && S.Map.size() > MaxPerShard) {
      S.Map.erase(S.Order.front());
      S.Order.pop_front();
      Evicted = true;
    }
    Lock.unlock();
    CInserts.inc();
    if (Evicted)
      CEvictions.inc();
    return true;
  }

  /// Entries across all shards.
  size_t size() const {
    size_t N = 0;
    for (const Shard &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.M);
      N += S.Map.size();
    }
    return N;
  }

  void clear() {
    for (Shard &S : Stripes) {
      std::lock_guard<std::mutex> Lock(S.M);
      S.Map.clear();
      S.Order.clear();
    }
  }

  unsigned shardCount() const { return (unsigned)Stripes.size(); }

  /// Counter totals, read from the backing registry. Call at a barrier
  /// for exact numbers (increments are relaxed atomics on sharded slots).
  BlockCacheStats stats() const {
    BlockCacheStats Total;
    Total.Hits = CHits.value();
    Total.Misses = CMisses.value();
    Total.Inserts = CInserts.value();
    Total.DroppedInserts = CDropped.value();
    Total.Evictions = CEvictions.value();
    return Total;
  }

private:
  struct Shard {
    mutable std::mutex M;
    std::map<Key, Value> Map;
    std::deque<Key> Order; ///< insertion order, for FIFO eviction
  };

  Shard &shardFor(const Key &K) {
    // Avalanche the hash so clustered inputs still spread across stripes
    // when the low bits select the stripe.
    size_t H = (size_t)avalanche64(Hasher(K));
    return Stripes[H & (Stripes.size() - 1)];
  }

  size_t MaxPerShard;
  Hash Hasher;
  std::vector<Shard> Stripes;
  /// Fallback registry when none was supplied (keeps stats() total).
  std::unique_ptr<obs::MetricsRegistry> OwnedMetrics;
  obs::Counter CHits, CMisses, CInserts, CDropped, CEvictions;
};

} // namespace mix::engine

#endif // MIX_ENGINE_BLOCKCACHE_H
