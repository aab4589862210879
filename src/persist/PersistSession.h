//===--- PersistSession.h - The persistent analysis cache -------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The on-disk analysis cache behind `mixyc --cache-dir`, the cross-run
/// counterpart of the in-memory BlockCache of Section 4.3. One
/// PersistSession wraps one cache directory and holds one store, the
/// block summaries ("blocks.mixcache", a RecordFile): opaque payloads
/// keyed by a stable block key (MIXY encodes its SymOutcome plus the
/// diagnostics the block run emitted — replaying them on a hit keeps
/// warm diagnostics byte-identical to a cold run). The store is written
/// under the block fingerprint (the analysis options that shape a
/// summary), so a directory written under other options loads as empty.
/// mixyd also keeps sessions in memory only (PersistOptions::InMemory),
/// so summaries stay warm across requests.
///
/// Failure contract: everything here is a cache of deterministic
/// recomputations, so every failure mode (missing file, corruption,
/// version skew, unwritable directory) degrades to a cold run — the
/// session records one human-readable reason, the driver surfaces it as
/// a single MIX502 note, and the analysis result is unchanged. The store
/// is mutex-guarded; saves publish via atomic rename, so two processes
/// sharing a --cache-dir race benignly (last rename wins, readers never
/// see a torn file). Every summary is a function of its key (the key
/// hashes the source text and positions the summary depends on), so a
/// summary another writer stored is as valid as one of this session's
/// own: a long-lived session needs no staleness check.
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
  /// Keep the store in memory only, without a cache directory: no disk
  /// I/O, save() succeeds as a no-op, never degraded. This is how mixyd
  /// keeps summaries warm across requests when no --cache-dir is given.
  bool InMemory = false;
};

/// One cache directory (or one in-memory store), opened for one tool run
/// or for the life of a warm daemon.
///
/// Payloads are opaque byte strings: the analysis that owns the
/// summaries (MIXY) encodes and decodes them, so this layer needs no
/// knowledge of SymOutcome or diagnostics.
///
/// Retention: every summary remembers the last run that stored or
/// replayed it. A warm in-memory session ends each run with
/// retireUnused(), which bounds the store by what its recent runs used;
/// a session that is saved to disk never calls it and keeps every entry.
class PersistSession {
public:
  explicit PersistSession(PersistOptions Opts);

  /// Non-empty when the store was rejected (corruption, version skew,
  /// unusable directory): the single degradation reason the driver
  /// reports. The session still works — it just started cold.
  const std::string &degradedReason() const { return DegradedReason; }

  /// The block summary stored under \p Key, if any.
  std::optional<std::string> lookup(uint64_t Key);
  void store(uint64_t Key, std::string Payload);
  /// Number of block summaries held.
  size_t size() const;

  /// Ends one run: drops every summary that none of the last \p Horizon
  /// runs (this one included) stored or replayed. A horizon of 0 drops
  /// everything.
  void retireUnused(size_t Horizon);

  /// Writes the store back to the cache directory. Returns false with
  /// \p Error set when the file could not be written (the run's findings
  /// are unaffected either way). In-memory sessions succeed without
  /// touching disk.
  bool save(std::string *Error = nullptr);

  /// Drops every block summary. Used by the daemon when a client reports
  /// a file changed.
  void invalidateSummaries();

private:
  std::vector<std::string> encode() const;
  bool decode(const std::vector<std::string> &Records);

  PersistOptions Opts;

  struct Entry {
    std::string Payload;
    uint64_t LastUse; ///< the run that last stored or replayed it
  };
  mutable std::mutex M; ///< guards Blocks and Run
  /// Ordered by key, so save() writes one set of summaries as the same
  /// bytes whatever order they were stored or loaded in.
  std::map<uint64_t, Entry> Blocks;
  uint64_t Run = 0; ///< runs ended by retireUnused()
  obs::Counter CHits, CMisses, CStores;

  std::string DegradedReason;
  bool DirUsable = false;
};

} // namespace mix::persist

#endif // MIX_PERSIST_PERSISTSESSION_H
