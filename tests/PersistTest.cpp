//===--- PersistTest.cpp - Tests for the persistent cache layer -----------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers src/persist/: the checksummed record-file container (round-trip
// plus every corruption mode in the failure contract), the three stores
// (including the block store's retention horizon), PersistSession's
// cold/warm/degraded lifecycle including concurrent writers sharing a
// cache directory, and the dependency-closure hashes against a
// per-function graph walk.
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
// Stores
//===----------------------------------------------------------------------===//

TEST(SolverQueryStoreTest, StoreLookupEncodeDecode) {
  SolverQueryStore S(nullptr);
  S.store(1, smt::SolveResult::Sat);
  S.store(2, smt::SolveResult::Unsat);
  S.store(3, smt::SolveResult::Unknown); // never persisted: not a verdict
  EXPECT_EQ(S.size(), 2u);

  smt::SolveResult R;
  ASSERT_TRUE(S.lookup(1, R));
  EXPECT_EQ(R, smt::SolveResult::Sat);
  ASSERT_TRUE(S.lookup(2, R));
  EXPECT_EQ(R, smt::SolveResult::Unsat);
  EXPECT_FALSE(S.lookup(3, R));

  SolverQueryStore S2(nullptr);
  ASSERT_TRUE(S2.decode(S.encode()));
  EXPECT_EQ(S2.size(), 2u);
  ASSERT_TRUE(S2.lookup(1, R));
  EXPECT_EQ(R, smt::SolveResult::Sat);
}

TEST(SolverQueryStoreTest, MalformedRecordRejected) {
  SolverQueryStore S(nullptr);
  EXPECT_FALSE(S.decode({std::string("zz")}));
  EXPECT_EQ(S.size(), 0u);
}

TEST(BlockSummaryStoreTest, OpaquePayloadRoundTrip) {
  BlockSummaryStore B(nullptr);
  EXPECT_FALSE(B.lookup(9).has_value());
  B.store(9, std::string("\x01payload\x00", 9));
  auto Hit = B.lookup(9);
  ASSERT_TRUE(Hit.has_value());
  EXPECT_EQ(*Hit, std::string("\x01payload\x00", 9));

  BlockSummaryStore B2(nullptr);
  ASSERT_TRUE(B2.decode(B.encode()));
  EXPECT_EQ(B2.size(), 1u);
  EXPECT_TRUE(B2.lookup(9).has_value());
}

TEST(BlockSummaryStoreTest, RetireUnusedKeepsOnlyTheHorizon) {
  BlockSummaryStore B(nullptr);
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
    BlockSummaryStore B(nullptr);
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
  BlockSummaryStore B(nullptr);
  B.store(1, "one");
  B.store(2, "two");
  B.retireUnused(2);
  B.clear();
  EXPECT_EQ(B.size(), 0u);
  EXPECT_FALSE(B.lookup(1).has_value());
  EXPECT_FALSE(B.lookup(2).has_value());
  // A summary stored after clear() lives out the full horizon.
  B.store(3, "three");
  B.retireUnused(2);
  B.retireUnused(2);
  EXPECT_EQ(B.size(), 1u);
  B.retireUnused(2);
  EXPECT_EQ(B.size(), 0u);
}

TEST(ManifestTest, RoundTrip) {
  Manifest M;
  M.Funcs["f"] = {11, 21};
  M.Funcs["g"] = {12, 22};
  Manifest M2;
  ASSERT_TRUE(M2.decode(M.encode()));
  ASSERT_EQ(M2.Funcs.size(), 2u);
  EXPECT_EQ(M2.Funcs["f"].ContentHash, 11u);
  EXPECT_EQ(M2.Funcs["g"].ClosureHash, 22u);
}

//===----------------------------------------------------------------------===//
// PersistSession lifecycle
//===----------------------------------------------------------------------===//

PersistOptions sessionOpts(const std::string &Dir, bool Incremental = true) {
  PersistOptions PO;
  PO.Dir = Dir;
  PO.Incremental = Incremental;
  PO.BlockFingerprint = 42;
  return PO;
}

TEST(PersistSessionTest, ColdThenWarm) {
  TempDir D("session");
  {
    PersistSession S(sessionOpts(D.Path));
    EXPECT_TRUE(S.degradedReason().empty());
    EXPECT_TRUE(S.previousManifest().Funcs.empty());
    S.solverCache().store(5, smt::SolveResult::Unsat);
    S.blocks().store(7, "summary");
    Manifest M;
    M.Funcs["main"] = {1, 2};
    S.setCurrentManifest(std::move(M));
    std::string Error;
    ASSERT_TRUE(S.save(&Error)) << Error;
  }
  PersistSession Warm(sessionOpts(D.Path));
  EXPECT_TRUE(Warm.degradedReason().empty());
  smt::SolveResult R;
  ASSERT_TRUE(Warm.solverCache().lookup(5, R));
  EXPECT_EQ(R, smt::SolveResult::Unsat);
  EXPECT_TRUE(Warm.blocks().lookup(7).has_value());
  EXPECT_EQ(Warm.previousManifest().Funcs.at("main").ClosureHash, 2u);
}

TEST(PersistSessionTest, BlockFingerprintChangeLoadsColdSilently) {
  TempDir D("refp");
  {
    PersistSession S(sessionOpts(D.Path));
    S.blocks().store(7, "summary");
    ASSERT_TRUE(S.save());
  }
  PersistOptions PO = sessionOpts(D.Path);
  PO.BlockFingerprint = 43; // analysis options changed
  PersistSession S(PO);
  EXPECT_TRUE(S.degradedReason().empty()); // not an anomaly
  EXPECT_FALSE(S.blocks().lookup(7).has_value());
}

TEST(PersistSessionTest, CorruptStoreDegradesButSessionWorks) {
  TempDir D("degraded");
  {
    PersistSession S(sessionOpts(D.Path));
    S.solverCache().store(5, smt::SolveResult::Sat);
    ASSERT_TRUE(S.save());
  }
  std::string Bytes = slurp(D.file("solver.mixcache"));
  Bytes.back() ^= 0x01;
  spit(D.file("solver.mixcache"), Bytes);

  obs::MetricsRegistry Reg;
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  PersistSession S(PO);
  EXPECT_FALSE(S.degradedReason().empty());
  EXPECT_EQ(Reg.counterValue("persist.degraded"), 1u);
  // Cold but functional: stores work and a save repairs the directory.
  smt::SolveResult R;
  EXPECT_FALSE(S.solverCache().lookup(5, R));
  S.solverCache().store(6, smt::SolveResult::Sat);
  ASSERT_TRUE(S.save());
  PersistSession S2(sessionOpts(D.Path));
  EXPECT_TRUE(S2.degradedReason().empty());
  EXPECT_TRUE(S2.solverCache().lookup(6, R));
}

TEST(PersistSessionTest, UnusableDirectoryDegrades) {
  TempDir D("blocked");
  spit(D.file("not_a_dir"), "file"); // a file where the dir should be
  PersistSession S(sessionOpts(D.file("not_a_dir") + "/cache"));
  EXPECT_FALSE(S.degradedReason().empty());
  EXPECT_FALSE(S.save()); // nothing to write into
}

TEST(PersistSessionTest, SolverStoreSharedAcrossFingerprints) {
  // Sat/Unsat verdicts are option-independent, so the solver store loads
  // under any block fingerprint.
  TempDir D("solvershared");
  {
    PersistSession S(sessionOpts(D.Path));
    S.solverCache().store(5, smt::SolveResult::Sat);
    ASSERT_TRUE(S.save());
  }
  PersistOptions PO = sessionOpts(D.Path);
  PO.BlockFingerprint = 99;
  PersistSession S(PO);
  smt::SolveResult R;
  EXPECT_TRUE(S.solverCache().lookup(5, R));
}

TEST(PersistSessionTest, GenerationStampLifecycle) {
  TempDir D("generation");
  PersistSession A(sessionOpts(D.Path));
  EXPECT_EQ(A.generation(), 0u); // cold start: no stamp on disk
  EXPECT_FALSE(A.externallyModified());

  ASSERT_TRUE(A.save());
  EXPECT_EQ(A.generation(), 1u);
  // Our own save is not an external modification.
  EXPECT_FALSE(A.externallyModified());

  PersistSession B(sessionOpts(D.Path));
  EXPECT_EQ(B.generation(), 1u); // loads what A published
  ASSERT_TRUE(B.save());
  EXPECT_EQ(B.generation(), 2u);
}

TEST(PersistSessionTest, ReopenInProcessAfterExternalWriter) {
  // The daemon scenario: a long-lived session must notice that another
  // writer published into its cache directory, and a reopened session
  // (what AnalysisService does on externallyModified) sees the new data
  // instead of replaying the stale manifest.
  TempDir D("reopen");
  PersistSession A(sessionOpts(D.Path));
  A.blocks().store(7, "from A");
  Manifest MA;
  MA.Funcs["f"] = {1, 1};
  A.setCurrentManifest(std::move(MA));
  ASSERT_TRUE(A.save());
  EXPECT_FALSE(A.externallyModified());

  {
    // A second writer (another process, modeled in-process) publishes.
    PersistSession B(sessionOpts(D.Path));
    B.blocks().store(8, "from B");
    Manifest MB;
    MB.Funcs["g"] = {2, 2};
    B.setCurrentManifest(std::move(MB));
    ASSERT_TRUE(B.save());
  }

  // A's loaded state is now stale and it must say so.
  EXPECT_TRUE(A.externallyModified());

  // Reopening the directory observes the latest generation and data.
  PersistSession C(sessionOpts(D.Path));
  EXPECT_EQ(C.generation(), 2u);
  EXPECT_FALSE(C.externallyModified());
  EXPECT_TRUE(C.blocks().lookup(8).has_value());
  EXPECT_EQ(C.previousManifest().Funcs.count("g"), 1u);
}

TEST(PersistSessionTest, StampIsWrittenLast) {
  // The generation stamp publishes after the data files, so a reader
  // that observes the new generation also observes the new data: after
  // any successful save, the stamp on disk equals the session's
  // generation and every data file is in place.
  TempDir D("stamplast");
  PersistSession S(sessionOpts(D.Path));
  S.blocks().store(1, "payload");
  ASSERT_TRUE(S.save());
  EXPECT_TRUE(std::filesystem::exists(D.file("generation.mixcache")));
  EXPECT_TRUE(std::filesystem::exists(D.file("blocks.mixcache")));
  // A fresh reader agrees on the generation and finds the data.
  PersistSession R(sessionOpts(D.Path));
  EXPECT_EQ(R.generation(), S.generation());
  EXPECT_TRUE(R.blocks().lookup(1).has_value());
}

TEST(PersistSessionTest, InvalidateSummariesClearsButKeepsSolver) {
  obs::MetricsRegistry Reg;
  TempDir D("invalidate");
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  PersistSession S(PO);
  S.solverCache().store(5, smt::SolveResult::Unsat);
  S.blocks().store(7, "summary");
  Manifest M;
  M.Funcs["main"] = {1, 2};
  S.setCurrentManifest(std::move(M));

  S.invalidateSummaries();
  EXPECT_EQ(Reg.counterValue("persist.invalidations"), 1u);
  EXPECT_FALSE(S.blocks().lookup(7).has_value());
  EXPECT_TRUE(S.previousManifest().Funcs.empty());
  // Solver verdicts are formula-keyed: they can never go stale when a
  // source file changes, so they survive the invalidation.
  smt::SolveResult R;
  EXPECT_TRUE(S.solverCache().lookup(5, R));
  EXPECT_EQ(R, smt::SolveResult::Unsat);
}

TEST(PersistSessionTest, InMemorySessionNeverTouchesDisk) {
  TempDir D("inmemory");
  PersistOptions PO = sessionOpts(D.Path);
  PO.InMemory = true;
  PersistSession S(PO);
  EXPECT_TRUE(S.degradedReason().empty());
  S.blocks().store(7, "summary");
  S.solverCache().store(5, smt::SolveResult::Sat);
  ASSERT_TRUE(S.save()); // a successful no-op
  EXPECT_FALSE(S.externallyModified());
  // The warm state *is* the store; nothing was published to disk.
  EXPECT_TRUE(std::filesystem::is_empty(D.Path));
  EXPECT_TRUE(S.blocks().lookup(7).has_value());
}

TEST(PersistSessionTest, MetricsCounters) {
  obs::MetricsRegistry Reg;
  TempDir D("metrics");
  PersistOptions PO = sessionOpts(D.Path);
  PO.Metrics = &Reg;
  PersistSession S(PO);
  smt::SolveResult R;
  S.solverCache().lookup(1, R);
  S.solverCache().store(1, smt::SolveResult::Sat);
  S.solverCache().lookup(1, R);
  S.blocks().lookup(2);
  S.blocks().store(2, "p");
  S.blocks().lookup(2);
  EXPECT_EQ(Reg.counterValue("persist.solver.misses"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.solver.hits"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.solver.stores"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.block.misses"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.block.hits"), 1u);
  EXPECT_EQ(Reg.counterValue("persist.block.stores"), 1u);
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
        SourceLoc(), "f" + std::to_string(I), nullptr,
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
