//===--- MixyPersistTest.cpp - Warm/incremental MIXY runs -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// End-to-end coverage of the persistent cache through MixyAnalysis: a
// warm run must produce byte-identical diagnostics while answering block
// lookups from disk; a corrupted cache must degrade to a cold run with
// the same findings; and an incremental re-run after editing one function
// must re-analyze only that function's dependency cone.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "persist/PersistSession.h"
#include "provenance/Provenance.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

using namespace mix;
using namespace mix::c;

namespace {

class TempDir {
public:
  explicit TempDir(const std::string &Name)
      : Path(::testing::TempDir() + "mixy_persist_" + Name) {
    std::filesystem::remove_all(Path);
    std::filesystem::create_directories(Path);
  }
  ~TempDir() { std::filesystem::remove_all(Path); }
  std::string file(const std::string &Name) const { return Path + "/" + Name; }
  const std::string Path;
};

void flipLastByte(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_FALSE(Bytes.empty());
  Bytes.back() ^= 0x01;
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Bytes;
}

/// One MIXY run against a cache directory (or none, when Dir is empty).
struct RunResult {
  unsigned Warnings = 0;
  std::string Diags;
  std::string Degraded;
  uint64_t BlockHits = 0, BlockMisses = 0, BlockStores = 0;
  uint64_t FuncsTotal = 0, FuncsChanged = 0, FuncsDirty = 0;
  uint64_t SymBlockRuns = 0;
  std::string Explain; ///< renderExplainText output (Explain runs only)
  uint64_t ProvWitnesses = 0, ProvFlows = 0, ProvBlocks = 0, ProvReplayed = 0;
};

RunResult runMixy(const std::string &Source, const std::string &Dir,
                  bool Explain = false, bool WarnDerefs = false,
                  const std::string &Entry = "main", bool EnableCache = true) {
  RunResult R;
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(Source, Ctx, Diags);
  EXPECT_NE(P, nullptr) << Diags.str();
  if (!P)
    return R;

  obs::MetricsRegistry Reg;
  MixyOptions Opts;
  Opts.Metrics = &Reg;
  Opts.EnableCache = EnableCache;
  if (WarnDerefs) {
    Opts.Qual.WarnAllDereferences = true;
    Opts.Sym.CheckDereferences = true;
  }
  prov::ProvenanceSink ProvSink;
  if (Explain) {
    ProvSink.attachMetrics(Reg);
    Opts.Prov = &ProvSink;
  }

  std::unique_ptr<persist::PersistSession> Session;
  if (!Dir.empty()) {
    persist::PersistOptions PO;
    PO.Dir = Dir;
    PO.BlockFingerprint = mixyPersistFingerprint(Opts);
    PO.Metrics = &Reg;
    Session = std::make_unique<persist::PersistSession>(std::move(PO));
    Opts.Persist = Session.get();
    R.Degraded = Session->degradedReason();
  }

  MixyAnalysis Mixy(*P, Ctx, Diags, Opts);
  R.Warnings = Mixy.run(MixyAnalysis::StartMode::Typed, Entry);
  R.Diags = Diags.str();
  if (Explain)
    R.Explain = prov::renderExplainText(Diags);
  if (Session) {
    std::string Error;
    EXPECT_TRUE(Session->save(&Error)) << Error;
  }
  R.BlockHits = Reg.counterValue("persist.block.hits");
  R.BlockMisses = Reg.counterValue("persist.block.misses");
  R.BlockStores = Reg.counterValue("persist.block.stores");
  R.FuncsTotal = Reg.counterValue("persist.funcs.total");
  R.FuncsChanged = Reg.counterValue("persist.funcs.changed");
  R.FuncsDirty = Reg.counterValue("persist.funcs.dirty");
  R.SymBlockRuns = Reg.counterValue("mixy.sym_block_runs");
  R.ProvWitnesses = Reg.counterValue("provenance.witnesses");
  R.ProvFlows = Reg.counterValue("provenance.flows");
  R.ProvBlocks = Reg.counterValue("provenance.blocks");
  R.ProvReplayed = Reg.counterValue("provenance.replayed");
  return R;
}

//===----------------------------------------------------------------------===//
// Warm runs on the vsftpd corpus
//===----------------------------------------------------------------------===//

TEST(MixyPersistTest, WarmRunIsByteIdenticalAndHitsTheBlockStore) {
  TempDir D("warm");
  const std::string Source = corpus::vsftpdFull(true);

  RunResult Reference = runMixy(Source, ""); // no cache at all
  RunResult Cold = runMixy(Source, D.Path);
  RunResult Warm = runMixy(Source, D.Path);

  // The cache must never change answers: cold == uncached == warm.
  EXPECT_EQ(Cold.Diags, Reference.Diags);
  EXPECT_EQ(Warm.Diags, Reference.Diags);
  EXPECT_EQ(Warm.Warnings, Reference.Warnings);

  EXPECT_GT(Cold.BlockStores, 0u);
  EXPECT_GT(Warm.BlockHits, 0u);
  // Unchanged input: the warm run answers every block lookup from disk
  // and re-executes no symbolic block — which also means it never needs
  // the solver at all.
  EXPECT_EQ(Warm.BlockMisses, 0u);
  EXPECT_EQ(Warm.SymBlockRuns, 0u);
  // Nothing changed, so nothing is dirty.
  EXPECT_GT(Warm.FuncsTotal, 0u);
  EXPECT_EQ(Warm.FuncsChanged, 0u);
  EXPECT_EQ(Warm.FuncsDirty, 0u);
}

TEST(MixyPersistTest, ProgramWithoutFunctionsRunsIncrementally) {
  // No function means no points-to cell: the dependency edges must still
  // be computed over an empty cell range.
  TempDir D("nofuncs");
  RunResult R = runMixy("int x;\nint *p;\n", D.Path);
  EXPECT_NE(R.Diags.find("entry function 'main' not found"),
            std::string::npos)
      << R.Diags;
  EXPECT_EQ(R.FuncsTotal, 0u);
}

TEST(MixyPersistTest, RoundCapWarningIsIdenticalColdAndWarm) {
  // Two MIX303 sources. The depth-16 chain runs out of fixpoint rounds;
  // that warning comes from the fixpoint, not from a block run, so it is
  // not persisted: a warm run replays every block summary, walks the
  // same rounds, and must hit the cap the same way. The counted loop's
  // block run is cut short by the loop bound; that warning is emitted
  // inside the run, so it is persisted and a warm run replays it.
  struct Case {
    const char *Name;
    std::string Source;
    const char *Warning;
  };
  for (const Case &C :
       {Case{"round_cap", corpus::deepCallChain(16),
             "fixpoint budget exhausted"},
        Case{"loop_cut", corpus::countedLoopBlock(20), "was cut short"}}) {
    SCOPED_TRACE(C.Name);
    TempDir D(C.Name);
    RunResult Cold = runMixy(C.Source, D.Path);
    RunResult Warm = runMixy(C.Source, D.Path);
    EXPECT_EQ(Cold.Warnings, 1u) << Cold.Diags;
    EXPECT_NE(Cold.Diags.find(C.Warning), std::string::npos) << Cold.Diags;
    EXPECT_EQ(Warm.Diags, Cold.Diags);
    EXPECT_EQ(Warm.Warnings, Cold.Warnings);
    EXPECT_GT(Warm.BlockHits, 0u);
    EXPECT_EQ(Warm.BlockMisses, 0u);
    EXPECT_EQ(Warm.SymBlockRuns, 0u);
  }
}

//===----------------------------------------------------------------------===//
// Provenance through the cache: explanations survive warm replay
//===----------------------------------------------------------------------===//

// A null dereference reported from *inside* a symbolic block run: the
// warning carries a symbolic witness and a block context, and — unlike
// the vsftpd corpus warning, which the final top-level qualifier solve
// emits after all blocks finish — it is recorded into the block's
// persisted summary, so it exercises warm replay.
const char *InBlockDerefSource = R"(
int *g_p;
void use(void) MIX(symbolic) {
  int x;
  if (g_p != NULL) {
    x = *g_p;
  }
  x = *g_p;
}
int main(void) {
  g_p = NULL;
  use();
  return 0;
}
)";

TEST(MixyPersistTest, ExplainIsIdenticalColdAndWarm) {
  // Provenance payloads ride inside the persisted block summaries, so a
  // warm --explain run replays the recorded explanations verbatim: the
  // full rendered text (diagnostics + evidence) is byte-identical, and
  // only the provenance.replayed counter tells the runs apart.
  TempDir D("explain");
  RunResult Cold = runMixy(InBlockDerefSource, D.Path, /*Explain=*/true,
                           /*WarnDerefs=*/true);
  RunResult Warm = runMixy(InBlockDerefSource, D.Path, /*Explain=*/true,
                           /*WarnDerefs=*/true);

  // The cold run recorded real evidence: the symbolic witness of the
  // unguarded dereference and the block context of the run that found it.
  EXPECT_GT(Cold.Warnings, 0u);
  EXPECT_GT(Cold.ProvWitnesses, 0u);
  EXPECT_GT(Cold.ProvBlocks, 0u);
  EXPECT_EQ(Cold.ProvReplayed, 0u);
  EXPECT_NE(Cold.Explain.find("witness path:"), std::string::npos)
      << Cold.Explain;
  EXPECT_NE(Cold.Explain.find("block context:"), std::string::npos)
      << Cold.Explain;

  // Warm: same findings, same explanations — replayed, not rebuilt.
  EXPECT_EQ(Warm.Diags, Cold.Diags);
  EXPECT_EQ(Warm.Explain, Cold.Explain);
  EXPECT_GT(Warm.BlockHits, 0u);
  EXPECT_EQ(Warm.SymBlockRuns, 0u);
  EXPECT_GT(Warm.ProvReplayed, 0u);
}

TEST(MixyPersistTest, FlowChainExplanationIsIdenticalColdAndWarm) {
  // The vsftpd warning's evidence is a qualifier flow chain built by the
  // final top-level solve, not by a block run — it is recomputed each
  // run rather than replayed, and must still come out byte-identical.
  TempDir D("explain_flow");
  const std::string Source = corpus::vsftpdFull(true);
  RunResult Cold = runMixy(Source, D.Path, /*Explain=*/true);
  RunResult Warm = runMixy(Source, D.Path, /*Explain=*/true);
  EXPECT_GT(Cold.Warnings, 0u);
  EXPECT_GT(Cold.ProvFlows, 0u);
  EXPECT_NE(Cold.Explain.find("qualifier flow:"), std::string::npos)
      << Cold.Explain;
  EXPECT_EQ(Warm.Diags, Cold.Diags);
  EXPECT_EQ(Warm.Explain, Cold.Explain);
  EXPECT_GT(Warm.BlockHits, 0u);
}

TEST(MixyPersistTest, ExplainOnAndOffRunsDoNotShareAStore) {
  // The store fingerprint includes whether provenance is recorded: a
  // cache written without evidence must not answer an --explain run (its
  // summaries carry no payloads to replay). The mismatch loads as a
  // silent cold start — the explain run re-executes the block and
  // rebuilds full evidence — never as corruption or a replay of
  // evidence-free summaries.
  TempDir D("explain_fp");
  RunResult Plain = runMixy(InBlockDerefSource, D.Path, /*Explain=*/false,
                            /*WarnDerefs=*/true);
  RunResult Explained = runMixy(InBlockDerefSource, D.Path, /*Explain=*/true,
                                /*WarnDerefs=*/true);
  EXPECT_EQ(Explained.Warnings, Plain.Warnings);
  EXPECT_TRUE(Explained.Degraded.empty());
  // Different fingerprint: nothing answered from the plain store, the
  // symbolic block really re-ran, and the evidence is fresh.
  EXPECT_GT(Explained.BlockMisses, 0u);
  EXPECT_GT(Explained.SymBlockRuns, 0u);
  EXPECT_EQ(Explained.ProvReplayed, 0u);
  EXPECT_GT(Explained.ProvWitnesses, 0u);
  EXPECT_NE(Explained.Explain.find("witness path:"), std::string::npos)
      << Explained.Explain;
}

//===----------------------------------------------------------------------===//
// Corruption: every anomaly degrades to a cold run with identical findings
//===----------------------------------------------------------------------===//

TEST(MixyPersistTest, CorruptBlockStoreFallsBackCold) {
  TempDir D("corrupt");
  const std::string Source = corpus::vsftpdFull(true);
  RunResult Cold = runMixy(Source, D.Path);
  flipLastByte(D.file("blocks.mixcache"));

  RunResult Warm = runMixy(Source, D.Path);
  EXPECT_FALSE(Warm.Degraded.empty());
  EXPECT_EQ(Warm.Diags, Cold.Diags);
  // The block store came up empty, so the symbolic blocks re-execute.
  EXPECT_GT(Warm.SymBlockRuns, 0u);
}

TEST(MixyPersistTest, TruncatedSolverStoreFallsBackCold) {
  // A truncated manifest degrades the run, which then diffs against an
  // empty previous run: every function counts as changed, while the
  // intact block store still replays.
  TempDir D("truncated");
  const std::string Source = corpus::vsftpdFull(true);
  RunResult Cold = runMixy(Source, D.Path);

  std::ifstream In(D.file("manifest.mixcache"), std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 6u);
  std::ofstream Out(D.file("manifest.mixcache"),
                    std::ios::binary | std::ios::trunc);
  Out << Bytes.substr(0, Bytes.size() - 5);
  Out.close();

  RunResult Warm = runMixy(Source, D.Path);
  EXPECT_FALSE(Warm.Degraded.empty());
  EXPECT_EQ(Warm.Diags, Cold.Diags);
  EXPECT_GT(Warm.FuncsTotal, 0u);
  EXPECT_EQ(Warm.FuncsChanged, Warm.FuncsTotal);
  EXPECT_EQ(Warm.FuncsDirty, Warm.FuncsTotal);
  EXPECT_GT(Warm.BlockHits, 0u);
  // The degraded run rewrites the directory; the next run is warm again.
  RunResult Healed = runMixy(Source, D.Path);
  EXPECT_TRUE(Healed.Degraded.empty());
  EXPECT_EQ(Healed.Diags, Cold.Diags);
  EXPECT_EQ(Healed.FuncsChanged, 0u);
}

//===----------------------------------------------------------------------===//
// Incremental re-analysis
//===----------------------------------------------------------------------===//

// A three-function dependency structure: middle calls helper; island is
// independent. Editing island must leave middle's (and helper's) closure
// hashes — and therefore middle's persisted blocks — intact.
std::string incrementalCorpus(const std::string &IslandBody) {
  return R"(
int helper(int x) {
  return x + 1;
}
int middle(int x) MIX(symbolic) {
  if (x != 0) {
    return helper(x);
  }
  return 0;
}
int island(int x) MIX(symbolic) {
)" + IslandBody + R"(
}
int main(void) {
  middle(1);
  island(2);
  return 0;
}
)";
}

TEST(MixyPersistTest, EditReanalyzesOnlyTheDependentCone) {
  TempDir D("incremental");
  const std::string V1 = incrementalCorpus("  return x + 2;");
  const std::string V2 = incrementalCorpus("  return x + 3;");

  RunResult Cold = runMixy(V1, D.Path);
  EXPECT_EQ(Cold.FuncsTotal, 4u); // helper, middle, island, main
  EXPECT_EQ(Cold.FuncsChanged, 4u); // everything is new on a cold start
  EXPECT_GT(Cold.BlockStores, 0u);

  RunResult Warm = runMixy(V2, D.Path);
  // Only island's content changed; the dirty cone is island plus its
  // caller main. helper and middle are untouched.
  EXPECT_EQ(Warm.FuncsTotal, 4u);
  EXPECT_EQ(Warm.FuncsChanged, 1u);
  EXPECT_EQ(Warm.FuncsDirty, 2u);
  // middle's block summary replays from disk; island's re-runs.
  EXPECT_GT(Warm.BlockHits, 0u);
  EXPECT_GT(Warm.BlockMisses, 0u);

  // The incremental run's diagnostics match a full cold run of V2.
  RunResult Reference = runMixy(V2, "");
  EXPECT_EQ(Warm.Diags, Reference.Diags);
  EXPECT_EQ(Warm.Warnings, Reference.Warnings);
}

TEST(MixyPersistTest, EditingACalleeInvalidatesItsCallers) {
  TempDir D("callee");
  const std::string V1 = R"(
int helper(int x) {
  return x + 1;
}
int middle(int x) MIX(symbolic) {
  if (x != 0) {
    return helper(x);
  }
  return 0;
}
int main(void) {
  middle(1);
  return 0;
}
)";
  // Same program with helper's body edited: middle's closure hash (and
  // so its block key) must change even though middle's text did not.
  const std::string V2 = R"(
int helper(int x) {
  return x + 7;
}
int middle(int x) MIX(symbolic) {
  if (x != 0) {
    return helper(x);
  }
  return 0;
}
int main(void) {
  middle(1);
  return 0;
}
)";
  RunResult Cold = runMixy(V1, D.Path);
  EXPECT_GT(Cold.BlockStores, 0u);
  RunResult Warm = runMixy(V2, D.Path);
  EXPECT_EQ(Warm.FuncsChanged, 1u); // helper's content
  EXPECT_EQ(Warm.FuncsDirty, 3u);   // helper, middle, main
  EXPECT_EQ(Warm.BlockHits, 0u);    // middle's old summary must not match
}

//===----------------------------------------------------------------------===//
// Runs without the block cache persist no block summaries
//===----------------------------------------------------------------------===//

// f and g have one arity and one calling context, and the indirect call
// puts every function in one dependency cone, so their persisted block
// keys collide (ROADMAP's first open item): a run that stores f's
// summary and replays it for g reports a null g never returns.
const char *SharedKeySource = R"(
void sink(int * nonnull p) MIX(typed);
void (*s_hook)(void);
int obj;
int *f(void) MIX(symbolic) { return NULL; }
int *g(void) MIX(symbolic) { return &obj; }
int main(void) {
  int *a; int *b;
  a = f(); b = g(); sink(b);
  if (s_hook != NULL) { (*s_hook)(); }
  return 0;
}
)";

TEST(MixyPersistTest, NoCacheRunNeitherStoresNorReplaysBlockSummaries) {
  // Only a run with the block cache stores each stable key at most once,
  // so only such a run persists block summaries. A --no-cache run against
  // an incremental session, cold or warm, answers as a run without one.
  struct Case {
    const char *Name;
    std::string Source;
    const char *Entry;
    unsigned Warnings;
  };
  for (const Case &C :
       {Case{"scaled", corpus::vsftpdScaled(true, 24, 8), "filler_main", 1},
        Case{"shared_key", SharedKeySource, "main", 0}}) {
    SCOPED_TRACE(C.Name);
    TempDir D(std::string("nocache_") + C.Name);
    RunResult Reference = runMixy(C.Source, "", false, false, C.Entry,
                                  /*EnableCache=*/false);
    EXPECT_EQ(Reference.Warnings, C.Warnings) << Reference.Diags;
    for (const char *Phase : {"cold", "warm"}) {
      SCOPED_TRACE(Phase);
      RunResult R = runMixy(C.Source, D.Path, false, false, C.Entry,
                            /*EnableCache=*/false);
      EXPECT_EQ(R.Diags, Reference.Diags);
      EXPECT_EQ(R.Warnings, Reference.Warnings);
      EXPECT_EQ(R.BlockStores, 0u);
      EXPECT_EQ(R.BlockHits, 0u);
      EXPECT_EQ(R.BlockMisses, 0u);
    }
  }
}

//===----------------------------------------------------------------------===//
// Persisted runs stay linear in the program size
//===----------------------------------------------------------------------===//

TEST(MixyPersistTest, LargeProgramWithAnIndirectCallStaysFast) {
  // The corpus's call through s_exit_func may reach any function, so
  // every closure hash covers the whole program. Hashing it with one
  // graph walk per function is cubic: ~30 s per run at this size, past
  // the 15 s ctest timeout this test carries.
  TempDir D("large");
  const std::string Source = corpus::vsftpdScaled(true, 400, 0);
  RunResult Cold = runMixy(Source, D.Path, false, false, "filler_main");
  RunResult Warm = runMixy(Source, D.Path, false, false, "filler_main");
  EXPECT_EQ(Cold.FuncsTotal, 1213u);
  EXPECT_GT(Cold.BlockStores, 0u);
  // Not vacuous: the warm run really answers from the store, every time.
  EXPECT_GT(Warm.BlockHits, 0u);
  EXPECT_EQ(Warm.BlockMisses, 0u);
  EXPECT_EQ(Warm.FuncsDirty, 0u);
  EXPECT_EQ(Warm.Diags, Cold.Diags);
}

//===----------------------------------------------------------------------===//
// The baseline-vs-annotated contract survives the cache
//===----------------------------------------------------------------------===//

TEST(MixyPersistTest, CachedCaseStudiesKeepTheirVerdicts) {
  // Each annotated case eliminates its false positive on both cold and
  // warm runs — the cache must never resurrect (or invent) a warning.
  for (int Case = 1; Case <= 4; ++Case) {
    SCOPED_TRACE("case" + std::to_string(Case));
    TempDir D("case" + std::to_string(Case));
    const std::string Source = corpus::vsftpdCase(Case, true);
    RunResult Cold = runMixy(Source, D.Path);
    RunResult Warm = runMixy(Source, D.Path);
    EXPECT_EQ(Cold.Warnings, 0u) << Cold.Diags;
    EXPECT_EQ(Warm.Warnings, 0u) << Warm.Diags;
    EXPECT_EQ(Warm.Diags, Cold.Diags);
  }
}

} // namespace
