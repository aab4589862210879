//===--- PersistSession.h - The persistent analysis cache -------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk analysis cache behind `mixyc --cache-dir --incremental`,
/// the cross-run counterpart of the in-memory BlockCache of Section 4.3.
/// One PersistSession wraps one cache directory and owns two stores,
/// each a RecordFile on disk:
///
///  - BlockSummaryStore ("blocks.mixcache"): opaque block-summary
///    payloads keyed by a stable block key (MIXY encodes its SymOutcome
///    plus the diagnostics the block run emitted — replaying them on a
///    hit keeps warm diagnostics byte-identical to a cold run).
///  - Manifest ("manifest.mixcache"): per-function content and
///    dependency-closure hashes from the previous run, which the next
///    run diffs to report how much of the program actually needed
///    re-analysis.
///
/// Both stores are written under the block fingerprint (the analysis
/// options that shape a summary), so a directory written under other
/// options loads as empty. mixyd also keeps sessions in memory only
/// (PersistOptions::InMemory), so summaries stay warm across requests.
///
/// Failure contract: everything here is a cache of deterministic
/// recomputations, so every failure mode (missing file, corruption,
/// version skew, unwritable directory) degrades to a cold run — the
/// session records one human-readable reason, the driver surfaces it as
/// a single MIX502 note, and the analysis result is unchanged. The block
/// store is mutex-guarded; saves publish via atomic rename, so two
/// processes sharing a --cache-dir race benignly (last rename wins,
/// readers never see a torn file).
///
//===----------------------------------------------------------------------===//

#ifndef MIX_PERSIST_PERSISTSESSION_H
#define MIX_PERSIST_PERSISTSESSION_H

#include "observe/Metrics.h"

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

namespace mix::persist {

/// Configuration of a PersistSession.
struct PersistOptions {
  /// The cache directory (created if absent).
  std::string Dir;
  /// Digest of the analysis options that affect block summaries; stores
  /// written under different options load as empty, not as corrupt.
  uint64_t BlockFingerprint = 0;
  /// Counters/latency land here ("persist.*"); null disables.
  obs::MetricsRegistry *Metrics = nullptr;
  /// Keep every store in memory only, without a cache directory: no disk
  /// I/O, save() succeeds as a no-op, never degraded. This is how mixyd
  /// keeps summaries warm across requests when no --cache-dir is given.
  bool InMemory = false;
};

/// The persistent block-summary store. Payloads are opaque byte strings:
/// the analysis that owns the summaries (MIXY) encodes and decodes them,
/// so this layer needs no knowledge of SymOutcome or diagnostics.
///
/// Retention: every entry remembers the last run that stored or replayed
/// it. A warm in-memory session ends each run with retireUnused(), which
/// bounds the store by what its recent runs used; a store that is saved
/// to disk never calls it and keeps every entry.
class BlockSummaryStore {
public:
  explicit BlockSummaryStore(obs::MetricsRegistry *Metrics);

  std::optional<std::string> lookup(uint64_t Key);
  void store(uint64_t Key, std::string Payload);

  size_t size() const;
  void clear();

  /// Ends one run: drops every summary that none of the last \p Horizon
  /// runs (this one included) stored or replayed. A horizon of 0 drops
  /// everything.
  void retireUnused(size_t Horizon);

  std::vector<std::string> encode() const;
  bool decode(const std::vector<std::string> &Records);

private:
  struct Entry {
    std::string Payload;
    uint64_t LastUse; ///< the run that last stored or replayed it
  };
  mutable std::mutex M;
  std::unordered_map<uint64_t, Entry> Map;
  uint64_t Run = 0; ///< runs ended by retireUnused()
  obs::Counter CHits, CMisses, CStores;
};

/// Per-function hashes from one run, diffed against the next run's.
struct Manifest {
  struct Func {
    uint64_t ContentHash = 0;
    uint64_t ClosureHash = 0;
  };
  std::map<std::string, Func> Funcs;

  std::vector<std::string> encode() const;
  bool decode(const std::vector<std::string> &Records);
};

/// One cache directory, opened for one tool run.
class PersistSession {
public:
  explicit PersistSession(PersistOptions Opts);

  /// Non-empty when any store was rejected (corruption, version skew,
  /// unusable directory): the single degradation reason the driver
  /// reports. The session still works — it just started cold.
  const std::string &degradedReason() const { return DegradedReason; }

  BlockSummaryStore &blocks() { return Blocks; }

  /// The manifest loaded from the previous run (empty on a cold start).
  const Manifest &previousManifest() const { return Previous; }
  /// Sets this run's manifest, written back by save().
  void setCurrentManifest(Manifest M) { Current = std::move(M); }

  /// Writes both stores back to the cache directory (bumping the on-disk
  /// generation stamp). Returns false with \p Error set on the first file
  /// that could not be written (the run's findings are unaffected either
  /// way). In-memory sessions succeed without touching disk.
  bool save(std::string *Error = nullptr);

  /// The generation this session loaded (0 on a cold start); each save()
  /// publishes generation + 1. Sessions opened before the stamp existed
  /// observe generation 0, matching the historical single-writer world.
  uint64_t generation() const { return Gen; }

  /// True when another writer has published into this cache directory
  /// since this session loaded it — i.e. the on-disk generation no longer
  /// matches generation(). A long-lived process must not keep replaying
  /// its loaded manifest/summaries past this point: reopen the directory
  /// (fresh PersistSession) or call invalidateSummaries(). Always false
  /// for in-memory and unusable-directory sessions.
  bool externallyModified() const;

  /// Drops the loaded manifest and every block summary. Used by the
  /// daemon when a client reports a file changed.
  void invalidateSummaries();

private:
  PersistOptions Opts;
  BlockSummaryStore Blocks;
  Manifest Previous, Current;
  std::string DegradedReason;
  bool DirUsable = false;
  uint64_t Gen = 0;
};

} // namespace mix::persist

#endif // MIX_PERSIST_PERSISTSESSION_H
