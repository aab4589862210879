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

// === PersistSession ==========================================================

namespace {

uint64_t nowUs() {
  return (uint64_t)std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

} // namespace

PersistSession::PersistSession(PersistOptions O) : Opts(std::move(O)) {
  if (Opts.Metrics) {
    CHits = Opts.Metrics->counter("persist.block.hits");
    CMisses = Opts.Metrics->counter("persist.block.misses");
    CStores = Opts.Metrics->counter("persist.block.stores");
  }
  if (Opts.InMemory)
    return; // the store starts empty and lives purely in memory

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

  std::vector<std::string> Records;
  std::string Error;
  LoadStatus S = loadRecordFile(Opts.Dir + "/blocks.mixcache",
                                Opts.BlockFingerprint, Records, Error);
  if (S == LoadStatus::Ok && !decode(Records))
    S = LoadStatus::Corrupt, Error = "malformed record";
  if (S == LoadStatus::Corrupt) {
    DegradedReason = "blocks.mixcache: " + Error;
    if (Opts.Metrics)
      Opts.Metrics->counter("persist.degraded").inc();
  }

  if (Opts.Metrics)
    Opts.Metrics->histogram("persist.load_us").record(nowUs() - Start);
}

std::optional<std::string> PersistSession::lookup(uint64_t Key) {
  std::unique_lock<std::mutex> Lock(M);
  auto It = Blocks.find(Key);
  if (It == Blocks.end()) {
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

void PersistSession::store(uint64_t Key, std::string Payload) {
  {
    std::lock_guard<std::mutex> Lock(M);
    Blocks[Key] = {std::move(Payload), Run};
  }
  CStores.inc();
}

size_t PersistSession::size() const {
  std::lock_guard<std::mutex> Lock(M);
  return Blocks.size();
}

void PersistSession::retireUnused(size_t Horizon) {
  std::lock_guard<std::mutex> Lock(M);
  std::erase_if(Blocks, [&](const auto &KV) {
    return Run - KV.second.LastUse >= Horizon;
  });
  ++Run;
}

std::vector<std::string> PersistSession::encode() const {
  std::lock_guard<std::mutex> Lock(M);
  std::vector<std::string> Records;
  Records.reserve(Blocks.size());
  for (const auto &[Key, E] : Blocks) {
    ByteWriter W;
    W.u64(Key).str(E.Payload);
    Records.push_back(W.take());
  }
  return Records;
}

bool PersistSession::decode(const std::vector<std::string> &Records) {
  std::lock_guard<std::mutex> Lock(M);
  for (const std::string &Rec : Records) {
    ByteReader R(Rec);
    uint64_t Key = R.u64();
    std::string Payload = R.str();
    if (!R.ok() || !R.atEnd()) {
      Blocks.clear();
      return false;
    }
    Blocks[Key] = {std::move(Payload), Run};
  }
  return true;
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

  bool Ok = saveRecordFile(Opts.Dir + "/blocks.mixcache",
                           Opts.BlockFingerprint, encode(), Err);
  if (Opts.Metrics)
    Opts.Metrics->histogram("persist.save_us").record(nowUs() - Start);
  return Ok;
}

void PersistSession::invalidateSummaries() {
  {
    std::lock_guard<std::mutex> Lock(M);
    Blocks.clear();
  }
  if (Opts.Metrics)
    Opts.Metrics->counter("persist.invalidations").inc();
}
