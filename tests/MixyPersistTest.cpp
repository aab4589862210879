//===--- MixyPersistTest.cpp - Warm/incremental MIXY runs -----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// End-to-end coverage of the persistent cache through MixyAnalysis: a
// cold run into an empty cache directory must do the work of a run
// without one; a warm run must produce byte-identical diagnostics while
// answering block lookups from disk; a corrupted cache must degrade to a
// cold run with the same findings; and a re-run after editing one
// function must re-run only the blocks whose dependency cone holds it.
//
//===----------------------------------------------------------------------===//

#include "EditScenarios.h"

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"
#include "observe/Trace.h"
#include "persist/PersistSession.h"
#include "provenance/Provenance.h"
#include "provenance/Sarif.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

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
  uint64_t SymBlockRuns = 0;
  /// The function of each symbolic block run, sorted.
  std::vector<std::string> SymBlocks;
  std::string Explain; ///< renderExplainText output (Explain runs only)
  std::string Sarif;   ///< renderSarif output (Explain runs only)
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
  obs::TraceSink Trace;
  MixyOptions Opts;
  Opts.Metrics = &Reg;
  Opts.Trace = &Trace;
  Opts.EnableCache = EnableCache;
  Opts.Qual.WarnAllDereferences = WarnDerefs;
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
  if (Explain) {
    R.Explain = prov::renderExplainText(Diags);
    R.Sarif = prov::renderSarif(Diags, {"mixyc", "input.c"});
  }
  if (Session) {
    std::string Error;
    EXPECT_TRUE(Session->save(&Error)) << Error;
  }
  R.BlockHits = Reg.counterValue("persist.block.hits");
  R.BlockMisses = Reg.counterValue("persist.block.misses");
  R.BlockStores = Reg.counterValue("persist.block.stores");
  R.SymBlockRuns = Reg.counterValue("mixy.sym_block_runs");
  for (const obs::TraceEvent &E : Trace.snapshotEvents())
    if (E.Name == "mixy.block.sym") {
      // Args is {"function": "<name>"}.
      size_t Open = E.Args.find(": \"") + 3;
      R.SymBlocks.push_back(E.Args.substr(Open, E.Args.rfind('"') - Open));
    }
  std::sort(R.SymBlocks.begin(), R.SymBlocks.end());
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
}

TEST(MixyPersistTest, ProgramWithoutFunctionsRunsIncrementally) {
  // No function means no points-to cell: the dependency edges must still
  // be computed over an empty cell range.
  TempDir D("nofuncs");
  RunResult R = runMixy("int x;\nint *p;\n", D.Path);
  EXPECT_NE(R.Diags.find("entry function 'main' not found"),
            std::string::npos)
      << R.Diags;
  EXPECT_TRUE(R.Degraded.empty());
  EXPECT_EQ(R.BlockStores, 0u);
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
  // A truncated block store (the one store a cache directory holds)
  // degrades the run, which re-runs every block cold with the same
  // findings and rewrites the directory: the next run is warm again.
  TempDir D("truncated");
  const std::string Source = corpus::vsftpdFull(true);
  RunResult Cold = runMixy(Source, D.Path);

  std::ifstream In(D.file("blocks.mixcache"), std::ios::binary);
  std::string Bytes((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
  In.close();
  ASSERT_GT(Bytes.size(), 6u);
  std::ofstream Out(D.file("blocks.mixcache"),
                    std::ios::binary | std::ios::trunc);
  Out << Bytes.substr(0, Bytes.size() - 5);
  Out.close();

  RunResult Warm = runMixy(Source, D.Path);
  EXPECT_FALSE(Warm.Degraded.empty());
  EXPECT_EQ(Warm.Diags, Cold.Diags);
  EXPECT_EQ(Warm.BlockHits, 0u);
  EXPECT_EQ(Warm.SymBlockRuns, Cold.SymBlockRuns);
  RunResult Healed = runMixy(Source, D.Path);
  EXPECT_TRUE(Healed.Degraded.empty());
  EXPECT_EQ(Healed.Diags, Cold.Diags);
  EXPECT_EQ(Healed.BlockMisses, 0u);
  EXPECT_EQ(Healed.SymBlockRuns, 0u);
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
  EXPECT_EQ(Cold.SymBlocks, (std::vector<std::string>{"island", "middle"}));
  EXPECT_EQ(Cold.BlockStores, 2u);

  RunResult Warm = runMixy(V2, D.Path);
  // Only island's content changed: middle's block summary (its cone is
  // middle and helper) replays from disk, and island's block re-runs.
  EXPECT_EQ(Warm.BlockHits, 1u);
  EXPECT_EQ(Warm.BlockMisses, 1u);
  EXPECT_EQ(Warm.SymBlocks, std::vector<std::string>{"island"});

  // The warm run's diagnostics match a run of V2 without a cache.
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
  EXPECT_EQ(Cold.BlockStores, 1u);
  RunResult Warm = runMixy(V2, D.Path);
  EXPECT_EQ(Warm.BlockHits, 0u); // middle's old summary must not match
  EXPECT_EQ(Warm.BlockMisses, 1u);
  EXPECT_EQ(Warm.SymBlocks, std::vector<std::string>{"middle"});
  EXPECT_EQ(Warm.Diags, runMixy(V2, "").Diags);
}

TEST(MixyPersistTest, EditingOneFillerReRunsOnlyTheBlocksThatReachIt) {
  // vsftpdScaled(true, 24, 8) has ten symbolic blocks: main_BLOCK,
  // sysutil_exit and fillers 0-7. Editing one increment of filler 3
  // re-runs that filler and the two corpus blocks, whose cones reach
  // sysutil_exit_BLOCK's call through s_exit_func and so every function;
  // the other seven fillers replay.
  TempDir D("filler_edit");
  const std::string V1 = corpus::vsftpdScaled(true, 24, 8);
  std::string V2 = V1;
  size_t At = V2.find("acc = acc + 3;", V2.find("void filler_use_3("));
  ASSERT_NE(At, std::string::npos);
  V2.replace(At, 14, "acc = acc + 7;");

  RunResult Cold = runMixy(V1, D.Path, false, false, "filler_main");
  EXPECT_EQ(Cold.SymBlockRuns, 13u);
  RunResult Warm = runMixy(V2, D.Path, false, false, "filler_main");
  EXPECT_EQ(Warm.SymBlocks, (std::vector<std::string>{
                                "filler_use_3", "main_BLOCK", "sysutil_exit"}));
  EXPECT_EQ(Warm.SymBlockRuns, 3u);
  EXPECT_EQ(Warm.Diags,
            runMixy(V2, "", false, false, "filler_main").Diags);
}

TEST(MixyPersistTest, EditedProgramsAnswerAsAPlainRunDoes) {
  // A summary is a function of its key: after each edit, a cold run into
  // an empty directory and a warm run over the original's summaries both
  // print what a run without a cache prints, and so do their
  // explanations and SARIF (both recorded with provenance on).
  for (const testgen::EditScenario &S : testgen::editScenarios()) {
    for (bool Explain : {false, true}) {
      SCOPED_TRACE(std::string(S.Name) + (Explain ? ", explain" : ""));
      TempDir Empty(std::string("edit_cold_") + S.Name);
      TempDir Edited(std::string("edit_warm_") + S.Name);
      RunResult Plain = runMixy(S.After, "", Explain);
      EXPECT_GT(Plain.Warnings, 0u);
      RunResult Cold = runMixy(S.After, Empty.Path, Explain);
      RunResult Before = runMixy(S.Before, Edited.Path, Explain);
      EXPECT_GT(Before.BlockStores, 0u);
      RunResult Warm = runMixy(S.After, Edited.Path, Explain);
      for (const RunResult *R : {&Cold, &Warm}) {
        EXPECT_EQ(R->Diags, Plain.Diags);
        EXPECT_EQ(R->Warnings, Plain.Warnings);
        EXPECT_EQ(R->Explain, Plain.Explain);
        EXPECT_EQ(R->Sarif, Plain.Sarif);
      }
    }
  }
}

TEST(MixyPersistTest, SharedCalleeWarningReplaysFromTheBlockThatKeepsIt) {
  // Not vacuous: in the shared-callee edit, b's summary replays, and
  // the warning it holds is the only report of h's dereference.
  const testgen::EditScenario S = testgen::editScenarios().back();
  ASSERT_EQ(std::string(S.Name), "shared_callee");
  TempDir D("shared_callee");
  runMixy(S.Before, D.Path);
  RunResult Warm = runMixy(S.After, D.Path);
  EXPECT_EQ(Warm.BlockHits, 1u);
  EXPECT_EQ(Warm.SymBlocks, std::vector<std::string>{"a"});
  EXPECT_EQ(Warm.Warnings, 1u);
  EXPECT_NE(Warm.Diags.find("2:3: warning: possible null dereference"),
            std::string::npos)
      << Warm.Diags;
}

//===----------------------------------------------------------------------===//
// A cache directory never changes what a run does
//===----------------------------------------------------------------------===//

// f and g have one arity, one calling context and, through the indirect
// call, one dependency cone: only their names tell their block keys
// apart. A run that stored f's summary and replayed it for g would
// report a null g never returns.
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

TEST(MixyPersistTest, CacheDirRunDoesTheWorkOfAPlainRun) {
  // A cold run into an empty directory runs every block a run without
  // one runs and answers the same; the warm rerun replays every block.
  struct Case {
    std::string Name;
    std::string Source;
    const char *Entry;
  };
  std::vector<Case> Cases;
  for (int N = 1; N <= 4; ++N)
    Cases.push_back({"case" + std::to_string(N), corpus::vsftpdCase(N, true),
                     "main"});
  Cases.push_back({"vsftpd", corpus::vsftpdFull(true), "main"});
  Cases.push_back({"shared_key", SharedKeySource, "main"});
  Cases.push_back(
      {"scaled", corpus::vsftpdScaled(true, 24, 8), "filler_main"});
  Cases.push_back({"deep16", corpus::deepCallChain(16), "main"});
  for (const Case &C : Cases) {
    SCOPED_TRACE(C.Name);
    TempDir D("plain_" + C.Name);
    RunResult Plain = runMixy(C.Source, "", false, false, C.Entry);
    RunResult Cold = runMixy(C.Source, D.Path, false, false, C.Entry);
    RunResult Warm = runMixy(C.Source, D.Path, false, false, C.Entry);
    EXPECT_EQ(Cold.Diags, Plain.Diags);
    EXPECT_EQ(Cold.Warnings, Plain.Warnings);
    EXPECT_EQ(Cold.SymBlockRuns, Plain.SymBlockRuns);
    EXPECT_EQ(Cold.BlockHits, 0u);
    EXPECT_EQ(Warm.Diags, Plain.Diags);
    EXPECT_EQ(Warm.BlockMisses, 0u);
    EXPECT_EQ(Warm.SymBlockRuns, 0u);
  }
}

TEST(MixyPersistTest, NoCacheRunNeitherStoresNorReplaysBlockSummaries) {
  // Only a run with the block cache stores each stable key at most once,
  // so only such a run persists block summaries. A --no-cache run against
  // a session, cold or warm, answers as a run without one.
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
  // The corpus's call through s_exit_func may reach any function, so the
  // closure hash of every function that reaches it (filler_main among
  // them) covers the whole program, and the filler's alias classes add
  // their edges too. Hashing it with one graph walk per function is
  // cubic: ~30 s per run at this size, past the 15 s ctest timeout this
  // test carries.
  TempDir D("large");
  const std::string Source = corpus::vsftpdScaled(true, 400, 0);
  RunResult Cold = runMixy(Source, D.Path, false, false, "filler_main");
  RunResult Warm = runMixy(Source, D.Path, false, false, "filler_main");
  EXPECT_GT(Cold.BlockStores, 0u);
  // Not vacuous: the warm run really answers from the store, every time.
  EXPECT_GT(Warm.BlockHits, 0u);
  EXPECT_EQ(Warm.BlockMisses, 0u);
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
