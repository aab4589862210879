//===--- PersistSession.cpp - The persistent analysis cache -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//

#include "persist/PersistSession.h"

#include "persist/RecordFile.h"

#include <chrono>
#include <filesystem>

using namespace mix::persist;
using mix::smt::SolveResult;

// === SolverQueryStore ========================================================

SolverQueryStore::SolverQueryStore(obs::MetricsRegistry *Metrics) {
  if (Metrics) {
    CHits = Metrics->counter("persist.solver.hits");
    CMisses = Metrics->counter("persist.solver.misses");
    CStores = Metrics->counter("persist.solver.stores");
  }
}

bool SolverQueryStore::lookup(uint64_t Key, SolveResult &Out) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Lock.unlock();
    CMisses.inc();
    return false;
  }
  Out = It->second == 0 ? SolveResult::Sat : SolveResult::Unsat;
  Lock.unlock();
  CHits.inc();
  return true;
}

void SolverQueryStore::store(uint64_t Key, SolveResult Result) {
  if (Result == SolveResult::Unknown)
    return; // resource-cap artifact, never a persistent fact
  {
    std::lock_guard<std::mutex> Lock(M);
    Map[Key] = Result == SolveResult::Sat ? 0 : 1;
  }
  CStores.inc();
}

size_t SolverQueryStore::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.size();
}

std::vector<std::string> SolverQueryStore::encode() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Records;
  Records.reserve(Map.size());
  for (const auto &[Key, Verdict] : Map) {
    ByteWriter W;
    W.u64(Key).u8(Verdict);
    Records.push_back(W.take());
  }
  return Records;
}

bool SolverQueryStore::decode(const std::vector<std::string> &Records) {
  std::lock_guard<std::mutex> Lock(M);
  for (const std::string &Payload : Records) {
    ByteReader R(Payload);
    uint64_t Key = R.u64();
    uint8_t Verdict = R.u8();
    if (!R.ok() || !R.atEnd() || Verdict > 1) {
      Map.clear();
      return false;
    }
    Map[Key] = Verdict;
  }
  return true;
}

// === BlockSummaryStore =======================================================

BlockSummaryStore::BlockSummaryStore(obs::MetricsRegistry *Metrics) {
  if (Metrics) {
    CHits = Metrics->counter("persist.block.hits");
    CMisses = Metrics->counter("persist.block.misses");
    CStores = Metrics->counter("persist.block.stores");
  }
}

std::optional<std::string> BlockSummaryStore::lookup(uint64_t Key) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Map.find(Key);
  if (It == Map.end()) {
    Lock.unlock();
    CMisses.inc();
    return std::nullopt;
  }
  It->second.LastUse = Run;
  std::string Out = It->second.Payload;
  Lock.unlock();
  CHits.inc();
  return Out;
}

void BlockSummaryStore::store(uint64_t Key, std::string Payload) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Map[Key] = {std::move(Payload), Run};
  }
  CStores.inc();
}

size_t BlockSummaryStore::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Map.size();
}

void BlockSummaryStore::clear() {
  std::lock_guard<std::mutex> Lock(M);
  Map.clear();
}

void BlockSummaryStore::retireUnused(size_t Horizon) {
  std::lock_guard<std::mutex> Lock(M);
  std::erase_if(Map, [&](const auto &KV) {
    return Run - KV.second.LastUse >= Horizon;
  });
  ++Run;
}

std::vector<std::string> BlockSummaryStore::encode() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Records;
  Records.reserve(Map.size());
  for (const auto &[Key, E] : Map) {
    ByteWriter W;
    W.u64(Key).str(E.Payload);
    Records.push_back(W.take());
  }
  return Records;
}

bool BlockSummaryStore::decode(const std::vector<std::string> &Records) {
  std::lock_guard<std::mutex> Lock(M);
  for (const std::string &Rec : Records) {
    ByteReader R(Rec);
    uint64_t Key = R.u64();
    std::string Payload = R.str();
    if (!R.ok() || !R.atEnd()) {
      Map.clear();
      return false;
    }
    Map[Key] = {std::move(Payload), Run};
  }
  return true;
}

// === Manifest ================================================================

std::vector<std::string> Manifest::encode() const {
  std::vector<std::string> Records;
  Records.reserve(Funcs.size());
  for (const auto &[Name, F] : Funcs) {
    ByteWriter W;
    W.str(Name).u64(F.ContentHash).u64(F.ClosureHash);
    Records.push_back(W.take());
  }
  return Records;
}

bool Manifest::decode(const std::vector<std::string> &Records) {
  for (const std::string &Rec : Records) {
    ByteReader R(Rec);
    std::string Name = R.str();
    Func F;
    F.ContentHash = R.u64();
    F.ClosureHash = R.u64();
    if (!R.ok() || !R.atEnd()) {
      Funcs.clear();
      return false;
    }
    Funcs[Name] = F;
  }
  return true;
}

// === PersistSession ==========================================================

namespace {

/// Solver verdicts depend only on the formula (caps can only produce
/// Unknown, which is never stored), so the solver store's fingerprint is
/// a constant and both tools can share one file.
constexpr uint64_t SolverFingerprint = 0;

uint64_t nowUs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Reads the generation stamp from \p Dir; a missing or malformed stamp
/// reads as 0 (the pre-stamp world had exactly one writer per process
/// lifetime, which generation 0 models). Never degrades the session —
/// the stamp guards manifest replay, it is not itself cached data.
uint64_t readGeneration(const std::string &Dir) {
  std::vector<std::string> Records;
  std::string Error;
  if (loadRecordFile(Dir + "/generation.mixcache", /*Fingerprint=*/0, Records,
                     Error) != LoadStatus::Ok ||
      Records.size() != 1)
    return 0;
  ByteReader R(Records[0]);
  uint64_t Gen = R.u64();
  return R.ok() && R.atEnd() ? Gen : 0;
}

} // namespace

PersistSession::PersistSession(PersistOptions O)
    : Opts(std::move(O)), Solver(Opts.Metrics), Blocks(Opts.Metrics) {
  if (Opts.InMemory)
    return; // stores start empty and live purely in memory

  uint64_t Start = nowUs();

  std::error_code EC;
  std::filesystem::create_directories(Opts.Dir, EC);
  DirUsable = !EC && std::filesystem::is_directory(Opts.Dir);
  if (!DirUsable) {
    DegradedReason = "cannot create cache directory";
    if (Opts.Metrics)
      Opts.Metrics->counter("persist.degraded").inc();
    return;
  }

  // Each store loads independently; one corrupt file costs only that
  // store, but the degradation note mentions whichever failed first.
  auto LoadInto = [&](const std::string &File, uint64_t Fingerprint,
                      auto &&Decode) {
    std::vector<std::string> Records;
    std::string Error;
    LoadStatus S =
        loadRecordFile(Opts.Dir + "/" + File, Fingerprint, Records, Error);
    if (S == LoadStatus::Ok && !Decode(Records))
      S = LoadStatus::Corrupt, Error = "malformed record";
    if (S == LoadStatus::Corrupt) {
      if (DegradedReason.empty())
        DegradedReason = File + ": " + Error;
      if (Opts.Metrics)
        Opts.Metrics->counter("persist.degraded").inc();
    }
  };

  Gen = readGeneration(Opts.Dir);

  LoadInto("solver.mixcache", SolverFingerprint,
           [&](const std::vector<std::string> &R) { return Solver.decode(R); });
  if (Opts.Incremental) {
    LoadInto("blocks.mixcache", Opts.BlockFingerprint,
             [&](const std::vector<std::string> &R) {
               return Blocks.decode(R);
             });
    LoadInto("manifest.mixcache", Opts.BlockFingerprint,
             [&](const std::vector<std::string> &R) {
               return Previous.decode(R);
             });
  }

  if (Opts.Metrics)
    Opts.Metrics->histogram("persist.load_us").record(nowUs() - Start);
}

bool PersistSession::save(std::string *Error) {
  std::string Local;
  std::string &Err = Error ? *Error : Local;
  if (Opts.InMemory)
    return true; // nothing to publish; the warm state *is* the store
  if (!DirUsable) {
    Err = "cache directory unusable";
    return false;
  }
  uint64_t Start = nowUs();

  bool Ok = saveRecordFile(Opts.Dir + "/solver.mixcache", SolverFingerprint,
                           Solver.encode(), Err);
  if (Ok && Opts.Incremental) {
    Ok = saveRecordFile(Opts.Dir + "/blocks.mixcache", Opts.BlockFingerprint,
                        Blocks.encode(), Err);
    if (Ok)
      Ok = saveRecordFile(Opts.Dir + "/manifest.mixcache",
                          Opts.BlockFingerprint, Current.encode(), Err);
  }

  // The generation stamp publishes last, after every data file is in
  // place, so a concurrent reader that observes the new generation also
  // observes the new data. Writing it claims the directory for this
  // session: any other open session now reports externallyModified().
  if (Ok) {
    ByteWriter W;
    W.u64(Gen + 1);
    Ok = saveRecordFile(Opts.Dir + "/generation.mixcache", /*Fingerprint=*/0,
                        {W.take()}, Err);
    if (Ok)
      ++Gen;
  }

  if (Opts.Metrics)
    Opts.Metrics->histogram("persist.save_us").record(nowUs() - Start);
  return Ok;
}

bool PersistSession::externallyModified() const {
  if (Opts.InMemory || !DirUsable)
    return false;
  return readGeneration(Opts.Dir) != Gen;
}

void PersistSession::invalidateSummaries() {
  Blocks.clear();
  Previous.Funcs.clear();
  Current.Funcs.clear();
  if (Opts.Metrics)
    Opts.Metrics->counter("persist.invalidations").inc();
}
