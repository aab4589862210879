//===--- PersistTest.cpp - Tests for the persistent cache layer -----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers src/persist/: the checksummed record-file container (round-trip
// plus every corruption mode in the failure contract), the block store
// (including its retention horizon), PersistSession's cold/warm/degraded
// lifecycle including concurrent writers sharing a cache directory, and
// the dependency-closure hashes against a per-function graph walk.
//
//===----------------------------------------------------------------------===//

#include "persist/AstHash.h"
#include "persist/PersistSession.h"
#include "persist/RecordFile.h"
#include "support/Hash.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

using namespace mix;
using namespace mix::persist;

namespace {

/// A fresh, empty directory per test; removed on destruction so ctest -j
/// runs never share state.
class TempDir {
public:
  explicit TempDir(const std::string &Name)
      : Path(::testing::TempDir() + "mix_persist_" + Name) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }
  const std::string Path;
};

std::string slurp(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
}

void spit(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

//===----------------------------------------------------------------------===//
// ByteWriter / ByteReader
//===----------------------------------------------------------------------===//

TEST(ByteCodecTest, RoundTrip) {
  ByteWriter W;
  W.u8(7).u16(300).u32(70000).u64(1ull << 40).boolean(true).str("hello");
  ByteReader R(W.bytes());
  EXPECT_EQ(R.u8(), 7u);
  EXPECT_EQ(R.u16(), 300u);
  EXPECT_EQ(R.u32(), 70000u);
  EXPECT_EQ(R.u64(), 1ull << 40);
  EXPECT_TRUE(R.boolean());
  EXPECT_EQ(R.str(), "hello");
  EXPECT_TRUE(R.ok());
  EXPECT_TRUE(R.atEnd());
}

TEST(ByteCodecTest, ReadPastEndFailsSoftly) {
  std::string Short("\x01", 1);
  ByteReader R(Short);
  (void)R.u32();        // value is unspecified on a truncated read...
  EXPECT_FALSE(R.ok()); // ...but the sticky error flag must trip
  EXPECT_EQ(R.u64(), 0u); // past the end entirely: all zero bytes
}

TEST(ByteCodecTest, OversizedStringLengthFails) {
  ByteWriter W;
  W.u32(1000); // claims 1000 bytes, provides none
  ByteReader R(W.bytes());
  EXPECT_EQ(R.str(), "");
  EXPECT_FALSE(R.ok());
}

//===----------------------------------------------------------------------===//
// RecordFile: round-trip and the failure contract
//===----------------------------------------------------------------------===//

const uint64_t FP = 0x1234;

TEST(RecordFileTest, RoundTrip) {
  TempDir D("roundtrip");
  std::vector<std::string> In = {"alpha", std::string("\0\xff", 2), ""};
  std::string Error;
  ASSERT_TRUE(saveRecordFile(D.file("s.mixcache"), FP, In, Error)) << Error;

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Ok);
  EXPECT_EQ(Out, In);
}

TEST(RecordFileTest, MissingFileIsACleanColdStart) {
  TempDir D("missing");
  std::vector<std::string> Out;
  std::string Error;
  EXPECT_EQ(loadRecordFile(D.file("absent.mixcache"), FP, Out, Error),
            LoadStatus::Missing);
  EXPECT_TRUE(Out.empty());
}

TEST(RecordFileTest, FingerprintMismatchLoadsEmptyNotCorrupt) {
  // Changed analysis options are a normal event, not file damage.
  TempDir D("fingerprint");
  std::string Error;
  ASSERT_TRUE(saveRecordFile(D.file("s.mixcache"), FP, {"payload"}, Error));
  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP + 1, Out, Error),
            LoadStatus::Missing);
  EXPECT_TRUE(Out.empty());
}

TEST(RecordFileTest, TruncatedFileIsCorrupt) {
  TempDir D("truncated");
  std::string Error;
  ASSERT_TRUE(
      saveRecordFile(D.file("s.mixcache"), FP, {"some payload data"}, Error));
  std::string Bytes = slurp(D.file("s.mixcache"));
  ASSERT_GT(Bytes.size(), 4u);
  spit(D.file("s.mixcache"), Bytes.substr(0, Bytes.size() - 4));

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_TRUE(Out.empty());
  EXPECT_FALSE(Error.empty());
}

TEST(RecordFileTest, FlippedChecksumByteIsCorrupt) {
  TempDir D("checksum");
  std::string Error;
  ASSERT_TRUE(saveRecordFile(D.file("s.mixcache"), FP, {"payload"}, Error));
  std::string Bytes = slurp(D.file("s.mixcache"));
  Bytes.back() ^= 0x40; // last byte lies inside the record checksum
  spit(D.file("s.mixcache"), Bytes);

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_NE(Error.find("checksum"), std::string::npos) << Error;
}

TEST(RecordFileTest, FlippedPayloadByteIsCorrupt) {
  TempDir D("payload");
  std::string Error;
  ASSERT_TRUE(
      saveRecordFile(D.file("s.mixcache"), FP, {"payload bytes"}, Error));
  std::string Bytes = slurp(D.file("s.mixcache"));
  // 8 magic + 4 version + 8 fingerprint + 4 length: first payload byte.
  Bytes[24] ^= 0x01;
  spit(D.file("s.mixcache"), Bytes);

  std::vector<std::string> Out;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
}

TEST(RecordFileTest, BadMagicIsCorrupt) {
  TempDir D("magic");
  spit(D.file("s.mixcache"), "NOTMYFMT with trailing bytes beyond header");
  std::vector<std::string> Out;
  std::string Error;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_NE(Error.find("magic"), std::string::npos) << Error;
}

TEST(RecordFileTest, VersionSkewIsCorrupt) {
  TempDir D("version");
  ByteWriter Rest;
  Rest.u32(FormatVersion + 1).u64(FP);
  spit(D.file("s.mixcache"), "MIXPERST" + Rest.take());

  std::vector<std::string> Out;
  std::string Error;
  EXPECT_EQ(loadRecordFile(D.file("s.mixcache"), FP, Out, Error),
            LoadStatus::Corrupt);
  EXPECT_NE(Error.find("version"), std::string::npos) << Error;
}

TEST(RecordFileTest, ConcurrentWritersNeverTearTheFile) {
  // Two writers race on the same path; rename() publication means any
  // subsequent load sees one writer's complete file, never a mix.
  TempDir D("race");
  const std::string Path = D.file("s.mixcache");
  auto Writer = [&](const std::string &Payload) {
    for (int I = 0; I != 50; ++I) {
      std::string Error;
      ASSERT_TRUE(saveRecordFile(Path, FP, {Payload}, Error)) << Error;
    }
  };
  std::thread A(Writer, std::string(100, 'a'));
  std::thread B(Writer, std::string(2000, 'b'));
  A.join();
  B.join();

  std::vector<std::string> Out;
  std::string Error;
  ASSERT_EQ(loadRecordFile(Path, FP, Out, Error), LoadStatus::Ok) << Error;
  ASSERT_EQ(Out.size(), 1u);
  EXPECT_TRUE(Out[0] == std::string(100, 'a') ||
              Out[0] == std::string(2000, 'b'));
}

//===----------------------------------------------------------------------===//
// The block store, in an in-memory session
//===----------------------------------------------------------------------===//

PersistSession inMemorySession() {
  PersistOptions PO;
  PO.InMemory = true;
  return PersistSession(PO);
}

TEST(BlockSummaryStoreTest, OpaquePayloadRoundTrip) {
  PersistSession B = inMemorySession();
  EXPECT_FALSE(B.lookup(9).has_value());
  B.store(9, std::string("\x01payload\x00", 9));
  auto Hit = B.lookup(9);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, std::string("\x01payload\x00", 9));

  // Through a cache directory, the payload survives byte for byte.
  TempDir D("payload");
  PersistOptions PO;
  PO.Dir = D.Path;
  {
    PersistSession Disk(PO);
    Disk.store(9, *Hit);
    ASSERT_TRUE(Disk.save());
  }
  PersistSession Reloaded(PO);
  EXPECT_EQ(Reloaded.size(), 1u);
  EXPECT_EQ(Reloaded.lookup(9), Hit);
}

TEST(BlockSummaryStoreTest, RetireUnusedKeepsOnlyTheHorizon) {
  PersistSession B = inMemorySession();
  constexpr size_t Horizon = 3;
  B.store(1, "one");
  B.store(2, "two");
  B.retireUnused(Horizon); // run 0 stored both
  ASSERT_TRUE(B.lookup(1).has_value());
  B.retireUnused(Horizon); // run 1 replayed 1
  B.retireUnused(Horizon); // run 2
  EXPECT_EQ(B.size(), 2u);
  B.retireUnused(Horizon); // run 3: none of runs 1..3 used 2
  EXPECT_EQ(B.size(), 1u);
  EXPECT_FALSE(B.lookup(2).has_value());
  B.retireUnused(Horizon); // run 4: none of runs 2..4 used 1
  EXPECT_EQ(B.size(), 0u);
  EXPECT_FALSE(B.lookup(1).has_value());
}

TEST(BlockSummaryStoreTest, RetireUnusedMatchesALastUseModel) {
  // Random runs of stores and lookups against a model that records each
  // key's last use: after every run the store holds exactly the keys used
  // within the horizon, and a replayed summary keeps its payload.
  for (size_t Horizon : {1u, 2u, 5u}) {
    PersistSession B = inMemorySession();
    std::map<uint64_t, uint64_t> LastUse; // key -> run
    std::mt19937_64 Rng(Horizon);
    for (uint64_t Run = 0; Run != 200; ++Run) {
      for (int Op = 0; Op != 6; ++Op) {
        uint64_t Key = Rng() % 24;
        if (Rng() % 2) {
          B.store(Key, "p" + std::to_string(Key));
          LastUse[Key] = Run;
        } else if (auto Hit = B.lookup(Key)) {
          ASSERT_TRUE(LastUse.count(Key));
          EXPECT_EQ(*Hit, "p" + std::to_string(Key));
          LastUse[Key] = Run;
        } else {
          EXPECT_FALSE(LastUse.count(Key));
        }
      }
      B.retireUnused(Horizon);
      std::erase_if(LastUse,
                    [&](const auto &KV) { return Run - KV.second >= Horizon; });
      ASSERT_EQ(B.size(), LastUse.size()) << "run " << Run;
    }
  }
}

TEST(BlockSummaryStoreTest, ClearEmptiesTheStore) {
  PersistSession B = inMemorySession();
  B.store(1, "one");
  B.store(2, "two");
  B.retireUnused(2);
  B.invalidateSummaries();
  EXPECT_EQ(B.size(), 0u);
  EXPECT_FALSE(B.lookup(1).has_value());
  EXPECT_FALSE(B.lookup(2).has_value());
  // A summary stored after the invalidation lives out the full horizon.
  B.store(3, "three");
  B.retireUnused(2);
  B.retireUnused(2);
  EXPECT_EQ(B.size(), 1u);
  B.retireUnused(2);
  EXPECT_EQ(B.size(), 0u);
}

//===----------------------------------------------------------------------===//
// PersistSession lifecycle
//===----------------------------------------------------------------------===//

PersistOptions sessionOpts(const std::string &Dir) {
  PersistOptions PO;
  PO.Dir = Dir;
  PO.BlockFingerprint = 42;
  return PO;
}

TEST(PersistSessionTest, ColdThenWarm) {
  TempDir D("session");
  {
    PersistSession S(sessionOpts(D.Path));
    EXPECT_TRUE(S.degradedReason().empty());
    EXPECT_EQ(S.size(), 0u);
    EXPECT_FALSE(S.lookup(7).has_value());
    S.store(7, "summary");
    std::string Error;
    ASSERT_TRUE(S.save(&Error)) << Error;
  }
  // Exactly the block store is published.
  std::set<std::string> Files;
  for (const auto &E : std::filesystem::directory_iterator(D.Path))
    Files.insert(E.path().filename().string());
  EXPECT_EQ(Files, (std::set<std::string>{"blocks.mixcache"}));

  PersistSession Warm(sessionOpts(D.Path));
  EXPECT_TRUE(Warm.degradedReason().empty());
  EXPECT_EQ(Warm.size(), 1u);
  auto Hit = Warm.lookup(7);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, "summary");
}

TEST(PersistSessionTest, BlockFingerprintChangeLoadsColdSilently) {
  TempDir D("refp");
  {
    PersistSession S(sessionOpts(D.Path));
    S.store(7, "summary");
    ASSERT_TRUE(S.save());
  }
  PersistOptions PO = sessionOpts(D.Path);
  PO.BlockFingerprint = 43; // analysis options changed
  PersistSession S(PO);
  EXPECT_TRUE(S.degradedReason().empty()); // not an anomaly
  EXPECT_FALSE(S.lookup(7).has_value());
}

TEST(PersistSessionTest, CorruptStoreDegradesButSessionWorks) {
  // A flipped byte in the block store empties it and degrades the
  // session, which still works, and a save repairs the directory.
  TempDir D("degraded");
  {
    PersistSession S(sessionOpts(D.Path));
    S.store(5, "five");
    ASSERT_TRUE(S.save());
  }
  std::string Bytes = slurp(D.file("blocks.mixcache"));
  Bytes.back() ^= 0x01;
  spit(D.file("blocks.mixcache"), Bytes);

  obs::MetricsRegistry Reg;
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  PersistSession S(PO);
  EXPECT_NE(S.degradedReason().find("blocks.mixcache"), std::string::npos)
      << S.degradedReason();
  EXPECT_EQ(Reg.counterValue("persist.degraded"), 1u);
  // Cold but functional: stores work and a save repairs the directory.
  EXPECT_FALSE(S.lookup(5).has_value());
  S.store(6, "six");
  ASSERT_TRUE(S.save());
  PersistSession S2(sessionOpts(D.Path));
  EXPECT_TRUE(S2.degradedReason().empty());
  EXPECT_TRUE(S2.lookup(6).has_value());
  EXPECT_FALSE(S2.lookup(5).has_value());
}

TEST(PersistSessionTest, UnusableDirectoryDegrades) {
  TempDir D("blocked");
  spit(D.file("not_a_dir"), "file"); // a file where the dir should be
  PersistSession S(sessionOpts(D.file("not_a_dir") + "/cache"));
  EXPECT_FALSE(S.degradedReason().empty());
  EXPECT_FALSE(S.save()); // nothing to write into
}

TEST(PersistSessionTest, InvalidateSummariesDropsLoadedAndStoredSummaries) {
  // Invalidation drops every block summary, the loaded ones and this
  // session's own, but keeps the session: it still stores, and its next
  // save publishes only what came after the invalidation.
  obs::MetricsRegistry Reg;
  TempDir D("invalidate");
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  {
    PersistSession S(sessionOpts(D.Path));
    S.store(6, "old");
    ASSERT_TRUE(S.save());
  }
  PersistSession S(PO);
  ASSERT_EQ(S.size(), 1u);
  S.store(7, "summary");

  S.invalidateSummaries();
  EXPECT_EQ(Reg.counterValue("persist.invalidations"), 1u);
  EXPECT_EQ(S.size(), 0u);
  EXPECT_FALSE(S.lookup(6).has_value());
  EXPECT_FALSE(S.lookup(7).has_value());

  S.store(8, "after");
  ASSERT_TRUE(S.save());
  PersistSession Reopened(sessionOpts(D.Path));
  EXPECT_FALSE(Reopened.lookup(6).has_value());
  EXPECT_FALSE(Reopened.lookup(7).has_value());
  EXPECT_TRUE(Reopened.lookup(8).has_value());
}

TEST(PersistSessionTest, InMemorySessionNeverTouchesDisk) {
  TempDir D("inmemory");
  PersistOptions PO = sessionOpts(D.Path);
  PO.InMemory = true;
  PersistSession S(PO);
  EXPECT_TRUE(S.degradedReason().empty());
  S.store(7, "summary");
  ASSERT_TRUE(S.save()); // a successful no-op
  // The warm state *is* the store; nothing was published to disk.
  EXPECT_TRUE(std::filesystem::is_empty(D.Path));
  EXPECT_TRUE(S.lookup(7).has_value());
}

TEST(PersistSessionTest, MetricsCounters) {
  obs::MetricsRegistry Reg;
  TempDir D("metrics");
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  {
    PersistSession S(PO);
    S.lookup(2);
    S.store(2, "p");
    S.lookup(2);
    EXPECT_EQ(Reg.counterValue("persist.block.misses"), 1u);
    EXPECT_EQ(Reg.counterValue("persist.block.hits"), 1u);
    EXPECT_EQ(Reg.counterValue("persist.block.stores"), 1u);
    ASSERT_TRUE(S.save());
  }
  PersistSession Warm(PO);
  EXPECT_TRUE(Warm.lookup(2).has_value());
  EXPECT_EQ(Reg.counterValue("persist.block.hits"), 2u);
  // One load and one save per on-disk session that saved; nothing else
  // under persist.* is registered.
  EXPECT_EQ(Reg.histogramSnapshot("persist.load_us").Count, 2u);
  EXPECT_EQ(Reg.histogramSnapshot("persist.save_us").Count, 1u);
  for (const auto &[Name, Value] : Reg.counters())
    EXPECT_EQ(Name.rfind("persist.block.", 0), 0u) << Name << " = " << Value;
}

//===----------------------------------------------------------------------===//
// closureHashes
//===----------------------------------------------------------------------===//

using FuncHashes = std::map<const c::CFuncDecl *, uint64_t>;
using DepGraph =
    std::map<const c::CFuncDecl *, std::vector<const c::CFuncDecl *>>;

/// The reference: one reflexive graph walk per function, hashing the
/// sorted content hashes of everything it reaches.
FuncHashes referenceClosureHashes(const FuncHashes &Content,
                                  const DepGraph &Deps, uint64_t EnvHash) {
  FuncHashes Out;
  for (const auto &[F, Hash] : Content) {
    (void)Hash;
    std::vector<const c::CFuncDecl *> Work{F};
    std::set<const c::CFuncDecl *> Seen{F};
    std::vector<uint64_t> Cone;
    while (!Work.empty()) {
      const c::CFuncDecl *Cur = Work.back();
      Work.pop_back();
      auto It = Content.find(Cur);
      if (It != Content.end())
        Cone.push_back(It->second);
      auto DepIt = Deps.find(Cur);
      if (DepIt == Deps.end())
        continue;
      for (const c::CFuncDecl *Next : DepIt->second)
        if (Seen.insert(Next).second)
          Work.push_back(Next);
    }
    std::sort(Cone.begin(), Cone.end());
    StableHasher H;
    H.u64(EnvHash);
    H.u32((uint32_t)Cone.size());
    for (uint64_t C : Cone)
      H.u64(C);
    Out[F] = H.digest();
  }
  return Out;
}

/// Declarations to serve as graph nodes; closureHashes only compares
/// their addresses.
std::vector<std::unique_ptr<c::CFuncDecl>> makeFuncs(size_t N) {
  std::vector<std::unique_ptr<c::CFuncDecl>> Out;
  for (size_t I = 0; I != N; ++I)
    Out.push_back(std::make_unique<c::CFuncDecl>(
        SourceLoc(), c::CSourceSpan(), "f" + std::to_string(I), nullptr,
        std::vector<c::CFuncDecl::Param>(), c::MixAnnot::None, nullptr));
  return Out;
}

TEST(ClosureHashTest, MatchesTheReferenceOnRandomGraphs) {
  // Cycles, self-loops, edges to and from nodes outside Content, and
  // duplicate content hashes all occur across the seeds.
  for (uint64_t Seed = 1; Seed <= 1200; ++Seed) {
    std::mt19937_64 Rng(Seed);
    size_t N = 1 + Rng() % 40;
    auto Funcs = makeFuncs(N);
    FuncHashes Content;
    for (const auto &F : Funcs)
      if (Rng() % 5 != 0)
        // A narrow range makes equal content hashes common.
        Content[F.get()] = Rng() % (Seed % 3 == 0 ? 4 : 1000);
    DepGraph Deps;
    unsigned Density = 1 + Rng() % 4;
    for (const auto &F : Funcs) {
      if (Rng() % 6 == 0)
        continue; // no out-edges at all
      std::vector<const c::CFuncDecl *> &Out = Deps[F.get()];
      for (size_t E = Rng() % (Density * 2 + 1); E; --E)
        Out.push_back(Funcs[Rng() % N].get());
    }
    uint64_t Env = Rng();
    ASSERT_EQ(closureHashes(Content, Deps, Env),
              referenceClosureHashes(Content, Deps, Env))
        << "seed " << Seed;
  }
}

TEST(ClosureHashTest, HubNodeMatchesMaterializedAllToAll) {
  // MIXY's indirect-call shape: each defined function's only edge goes to
  // a hub (the null node), which reaches every defined function.
  for (uint64_t Seed = 1; Seed <= 50; ++Seed) {
    std::mt19937_64 Rng(Seed);
    auto Funcs = makeFuncs(1 + Rng() % 60);
    FuncHashes Content;
    std::vector<const c::CFuncDecl *> All;
    for (const auto &F : Funcs) {
      Content[F.get()] = Rng() % 50;
      All.push_back(F.get());
    }
    DepGraph Hub, AllToAll;
    for (const c::CFuncDecl *F : All) {
      Hub[F] = {nullptr};
      AllToAll[F] = All;
    }
    Hub[nullptr] = All;
    FuncHashes Expected = referenceClosureHashes(Content, AllToAll, Seed);
    EXPECT_EQ(closureHashes(Content, Hub, Seed), Expected) << "seed " << Seed;
    EXPECT_EQ(closureHashes(Content, AllToAll, Seed), Expected)
        << "seed " << Seed;
    // Every function reaches everything, so all digests agree.
    for (const auto &[F, Digest] : Expected)
      EXPECT_EQ(Digest, Expected.begin()->second);
  }
}

TEST(ClosureHashTest, GoldenDigests) {
  // main -> a <-> b -> ext (outside Content), c alone. The digests are
  // part of the on-disk cache contract: they must never change.
  auto Funcs = makeFuncs(5);
  const c::CFuncDecl *Main = Funcs[0].get(), *A = Funcs[1].get(),
                     *B = Funcs[2].get(), *C = Funcs[3].get(),
                     *Ext = Funcs[4].get();
  FuncHashes Content{{Main, 0x1111}, {A, 0x2222}, {B, 0x3333}, {C, 0x4444}};
  DepGraph Deps{{Main, {A}}, {A, {B}}, {B, {A, Ext}}};
  FuncHashes Got = closureHashes(Content, Deps, 0xE0E0);
  EXPECT_EQ(Got, referenceClosureHashes(Content, Deps, 0xE0E0));
  EXPECT_EQ(Got.at(Main), 10417934387040653913ull);
  EXPECT_EQ(Got.at(A), 17543152204296564521ull);
  EXPECT_EQ(Got.at(B), 17543152204296564521ull);
  EXPECT_EQ(Got.at(C), 15608717754037996898ull);
}

} // namespace
