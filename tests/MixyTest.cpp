//===--- MixyTest.cpp - End-to-end tests for the MIXY driver --------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// These tests reproduce Section 4.5: for each vsftpd case study, pure
// type qualifier inference reports a false positive that the annotated
// MIXY run eliminates. They also pin down the fixpoint (Section 4.1):
// one answer and one amount of work per program, and a run cut off by
// the round cap says so.
//
//===----------------------------------------------------------------------===//

#include "cfront/CParser.h"
#include "mixy/Mixy.h"
#include "mixy/VsftpdMini.h"

#include <gtest/gtest.h>

#include <vector>

using namespace mix::c;
using mix::DiagID;
using mix::DiagnosticEngine;

namespace {

class MixyTest : public ::testing::Test {
protected:
  /// Pure type qualifier inference (the baseline): warnings reported.
  unsigned baselineWarnings(const std::string &Source) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return ~0u;
    QualInference Inf(*P, Ctx, Diags);
    Inf.analyzeAll();
    Inf.solve();
    return Inf.reportWarnings();
  }

  /// The full MIXY analysis from main.
  unsigned mixyWarnings(const std::string &Source,
                        MixyOptions Opts = MixyOptions(),
                        MixyStats *StatsOut = nullptr) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    if (!P)
      return ~0u;
    MixyAnalysis Mixy(*P, Ctx, Diags, Opts);
    unsigned W = Mixy.run(MixyAnalysis::StartMode::Typed);
    if (StatsOut)
      *StatsOut = Mixy.stats();
    LastDiags = Diags.str();
    LastIds.clear();
    for (const mix::Diagnostic &D : Diags.diagnostics())
      LastIds.push_back(D.ID);
    return W;
  }

  /// How many of the last run's diagnostics carry \p ID.
  unsigned lastCount(DiagID ID) const {
    unsigned N = 0;
    for (DiagID Seen : LastIds)
      N += Seen == ID;
    return N;
  }

  std::string LastDiags;
  std::vector<DiagID> LastIds;
};

} // namespace

// --- Case 1: flow and path insensitivity in sockaddr_clear ------------------

TEST_F(MixyTest, Case1BaselineHasFalsePositive) {
  EXPECT_GE(baselineWarnings(corpus::vsftpdCase(1, false)), 1u);
}

TEST_F(MixyTest, Case1SymbolicBlockEliminatesWarning) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(1, true)), 0u) << LastDiags;
}

TEST_F(MixyTest, Case1UnannotatedMixyStillWarns) {
  // Without the MIX(symbolic) annotation, MIXY's typed mode is just
  // qualifier inference and keeps the false positive.
  EXPECT_GE(mixyWarnings(corpus::vsftpdCase(1, false)), 1u);
}

// --- Case 2: path and context insensitivity in str_next_dirent --------------

TEST_F(MixyTest, Case2BaselineHasFalsePositive) {
  EXPECT_GE(baselineWarnings(corpus::vsftpdCase(2, false)), 1u);
}

TEST_F(MixyTest, Case2SymbolicBlockEliminatesWarning) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(2, true)), 0u) << LastDiags;
}

// --- Case 3: flow and path insensitivity in dns_resolve and main ------------

TEST_F(MixyTest, Case3BaselineHasFalsePositive) {
  EXPECT_GE(baselineWarnings(corpus::vsftpdCase(3, false)), 1u);
}

TEST_F(MixyTest, Case3SymbolicBlockEliminatesWarnings) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(3, true)), 0u) << LastDiags;
}

// --- Case 4: helping symbolic execution with typed blocks --------------------

TEST_F(MixyTest, Case4WithoutTypedBlockWarns) {
  // sysutil_exit is symbolic; without the typed annotation on
  // sysutil_exit_BLOCK the executor hits the unknown function pointer.
  EXPECT_GE(mixyWarnings(corpus::vsftpdCase(4, false)), 1u);
}

TEST_F(MixyTest, Case4TypedBlockEnablesSymbolicExecution) {
  EXPECT_EQ(mixyWarnings(corpus::vsftpdCase(4, true)), 0u) << LastDiags;
}

// --- full corpus --------------------------------------------------------------

TEST_F(MixyTest, FullCorpusBaselineWarnsAnnotatedDoesNot) {
  // The baseline reports the (single) violated nonnull bound; our
  // counting is per violated annotation, with the witness paths carrying
  // the individual flows.
  EXPECT_GE(baselineWarnings(corpus::vsftpdFull(false)), 1u);
  // With default options the merged corpus keeps one residual warning:
  // context-insensitive alias restoration (Section 4.2) links Case 1's
  // g_addr with Case 3's p_addr through sockaddr_clear's parameter —
  // exactly the pollution Section 4.6 reports ("nested typed blocks are
  // polluted by aliasing relationships from the entire program").
  EXPECT_LE(mixyWarnings(corpus::vsftpdFull(true)), 1u);
  // Disabling alias restoration isolates the cases and removes every
  // false positive.
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  EXPECT_EQ(mixyWarnings(corpus::vsftpdFull(true), NoAlias), 0u)
      << LastDiags;
}

TEST_F(MixyTest, StatsReflectBlockSwitching) {
  MixyStats Stats;
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  ASSERT_EQ(mixyWarnings(corpus::vsftpdFull(true), NoAlias, &Stats), 0u)
      << LastDiags;
  EXPECT_GE(Stats.SymbolicCallsFromTyped, 3u); // the annotated frontiers
  EXPECT_GE(Stats.SymbolicBlockRuns, 3u);
  EXPECT_GE(Stats.TypedCallsFromSymbolic, 1u); // sysutil_free etc.
}

TEST_F(MixyTest, AliasRestoredLocalKeepsItsNullFlow) {
  // Alias restoration after touch's block asks for the qualifiers of
  // later3's local `solo` before inference has analyzed later3. They
  // must be the ones its declaration makes, so the NULL assigned to it
  // still reaches sink3's nonnull parameter, exactly as without alias
  // restoration.
  const std::string Source =
      "int a;\n"
      "int *p;\n"
      "int **gpp;\n"
      "void sink3(int * nonnull s) MIX(typed);\n"
      "void touch(int **pp) MIX(symbolic) { *pp = NULL; }\n"
      "void first(void) { touch(&p); }\n"
      "void later3(void) { int *solo; gpp = &solo; solo = NULL; "
      "sink3(solo); }\n"
      "int main(void) { p = &a; first(); later3(); return 0; }\n";
  const std::string Flow = "NULL -> later3::solo -> param s of sink3";
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  EXPECT_EQ(mixyWarnings(Source, NoAlias), 1u) << LastDiags;
  EXPECT_NE(LastDiags.find(Flow), std::string::npos) << LastDiags;
  EXPECT_EQ(mixyWarnings(Source), 1u) << LastDiags;
  EXPECT_NE(LastDiags.find(Flow), std::string::npos) << LastDiags;
}

// --- caching (Section 4.3) ----------------------------------------------------

TEST_F(MixyTest, CacheHitsOnRepeatedCompatibleContexts) {
  // Two calls to the same symbolic function with the same context: the
  // second is served from the cache.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int g;
void helper(int *p) MIX(symbolic) {
  if (p != NULL) { sysutil_free((void*)p); }
}
int main(void) {
  helper(&g);
  helper(&g);
  return 0;
}
)";
  MixyStats Stats;
  EXPECT_EQ(mixyWarnings(Source, MixyOptions(), &Stats), 0u) << LastDiags;
  EXPECT_GE(Stats.SymbolicCacheHits, 1u);

  MixyOptions NoCache;
  NoCache.EnableCache = false;
  MixyStats Stats2;
  EXPECT_EQ(mixyWarnings(Source, NoCache, &Stats2), 0u);
  EXPECT_EQ(Stats2.SymbolicCacheHits, 0u);
  EXPECT_GT(Stats2.SymbolicBlockRuns, Stats.SymbolicBlockRuns);
}

// --- recursion (Section 4.4) ---------------------------------------------------

TEST_F(MixyTest, RecursionBetweenTypedAndSymbolicBlocks) {
  // A typed function and a symbolic function that call each other; the
  // block stack must detect the cycle and converge instead of looping.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
void typed_step(int *p, int n) MIX(typed);
void symbolic_step(int *p, int n) MIX(symbolic) {
  if (n > 0) { typed_step(p, n - 1); }
}
void typed_step(int *p, int n) MIX(typed) {
  if (n > 0) { symbolic_step(p, n - 1); }
}
int g;
int main(void) {
  symbolic_step(&g, 3);
  return 0;
}
)";
  MixyStats Stats;
  EXPECT_EQ(mixyWarnings(Source, MixyOptions(), &Stats), 0u) << LastDiags;
  EXPECT_GE(Stats.RecursionsDetected, 1u);
}

// --- fixpoint (Section 4.1) -----------------------------------------------------

TEST_F(MixyTest, FixpointPropagatesLateNullConstraints) {
  // The paper's two-symbolic-block example: analyzed in source order, the
  // free-side block sees x as optimistically nonnull until the null-side
  // block's constraint arrives; the fixpoint re-runs it and finds the
  // error.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int *x;
void use_block(void) MIX(symbolic) {
  sysutil_free((void*)x);
}
void null_block(void) MIX(symbolic) {
  x = NULL;
}
int main(void) {
  use_block();
  null_block();
  return 0;
}
)";
  MixyStats Stats;
  EXPECT_GE(mixyWarnings(Source, MixyOptions(), &Stats), 1u);
  EXPECT_GE(Stats.FixpointIterations, 1u);
}

TEST_F(MixyTest, SiteFoundMidRoundRunsInTheNextRound) {
  // Each round takes the site count once, so a frontier call site that a
  // block run registers in the middle of a round waits for the next one.
  // With the guard, blk reaches the typed t only once src has made g
  // may-be-null, in round 0; t's region calls the symbolic s, whose site
  // is registered then and first refreshed in round 1, which therefore
  // changes something. Without the guard all three sites are registered
  // before the loop, and round 1 re-runs s.
  struct Case {
    const char *Blk;
    unsigned TypedToSym, SymRuns, TypedRuns, Rounds, Reruns;
  };
  for (Case C :
       {Case{"if (g == NULL) { r = t(g); sysutil_free((void*)r); }", 3, 6, 2,
             2, 0},
        Case{"r = t(g); sysutil_free((void*)r);", 3, 7, 4, 2, 1}}) {
    SCOPED_TRACE(C.Blk);
    const std::string Source =
        "int *g;\n"
        "void sysutil_free(void * nonnull p) MIX(typed);\n"
        "int *s(int *a) MIX(symbolic) { return a; }\n"
        "int *t(int *a) MIX(typed) { return s(a); }\n"
        "void blk(void) MIX(symbolic) { int *r; " +
        std::string(C.Blk) +
        " }\n"
        "void src(void) MIX(symbolic) { g = NULL; }\n"
        "int main(void) { blk(); src(); return 0; }\n";
    mix::obs::MetricsRegistry Reg;
    MixyOptions Opts;
    Opts.Metrics = &Reg;
    MixyStats Stats;
    mixyWarnings(Source, Opts, &Stats);
    EXPECT_EQ(Stats.SymbolicCallsFromTyped, C.TypedToSym);
    EXPECT_EQ(Stats.SymbolicBlockRuns, C.SymRuns);
    EXPECT_EQ(Stats.TypedBlockRuns, C.TypedRuns);
    EXPECT_EQ(Stats.FixpointIterations, C.Rounds);
    EXPECT_EQ(Reg.counterValue("engine.fixpoint.reruns"), C.Reruns);
  }
}

TEST_F(MixyTest, RepeatedRunsDoTheSameWork) {
  // One answer per program, and one amount of work: the typed region is
  // analyzed in declaration order, so frontier call sites register (and
  // the fixpoint visits them) in an order fixed by the program, never by
  // heap addresses. Fresh analyses in one process, where the allocator
  // hands out different addresses each time, must agree on every
  // counter and on the diagnostics in emission order.
  const std::string Source = corpus::vsftpdScaled(true, 24, 8);
  auto Run = [&](std::string &Rendered) {
    CAstContext Ctx;
    DiagnosticEngine Diags;
    const CProgram *P = parseC(Source, Ctx, Diags);
    EXPECT_NE(P, nullptr) << Diags.str();
    mix::obs::MetricsRegistry Reg;
    MixyOptions Opts;
    Opts.Metrics = &Reg;
    MixyAnalysis Mixy(*P, Ctx, Diags, Opts);
    Mixy.run(MixyAnalysis::StartMode::Typed, "filler_main");
    Rendered = Diags.str();
    const MixyStats &S = Mixy.stats();
    std::vector<uint64_t> Work{
        S.SymbolicBlockRuns,      S.SymbolicCacheHits,
        S.TypedBlockRuns,         S.TypedCacheHits,
        S.SymbolicCallsFromTyped, S.TypedCallsFromSymbolic,
        S.FixpointIterations,     S.RecursionsDetected};
    // The executor's, the solver's, the points-to analysis's and the
    // qualifier graph's work, as published to the registry.
    for (const char *Name :
         {"csym.paths", "csym.forks", "csym.forks_pruned", "csym.null_checks",
          "csym.calls_inlined", "solver.queries", "ptranal.cells",
          "ptranal.unions", "qual.variables", "qual.flow_edges"})
      Work.push_back(Reg.counterValue(Name));
    return Work;
  };
  std::string FirstDiags;
  std::vector<uint64_t> First = Run(FirstDiags);
  EXPECT_GT(First[0], 8u); // every filler block ran
  EXPECT_GT(First[9], 8u * 31); // csym.forks: 31 per block's if-cascade
  EXPECT_GT(First[13], 0u);     // solver.queries
  for (size_t I = 14; I != 18; ++I)
    EXPECT_GT(First[I], 0u); // points-to and qualifier work
  for (int I = 1; I != 20; ++I) {
    std::string Diags;
    EXPECT_EQ(Run(Diags), First) << "run " << I;
    EXPECT_EQ(Diags, FirstDiags) << "run " << I;
  }
}

// --- the fixpoint's round cap -----------------------------------------------

TEST_F(MixyTest, DeepChainThatConvergesGetsNoBudgetWarning) {
  // Depths 5 and 15 converge within the cap. Depth 15 changes some
  // context in all 16 allowed rounds, yet its last round reaches the
  // fixpoint: the refresh pass after it sees nothing change. Both report
  // only the one true warning.
  for (unsigned Depth : {5u, 15u}) {
    SCOPED_TRACE("depth " + std::to_string(Depth));
    EXPECT_EQ(mixyWarnings(corpus::deepCallChain(Depth)), 1u) << LastDiags;
    EXPECT_EQ(lastCount(DiagID::NullWarning), 1u) << LastDiags;
    EXPECT_EQ(lastCount(DiagID::ExecBudget), 0u) << LastDiags;
  }
}

TEST_F(MixyTest, DeepChainCutByTheRoundCapWarns) {
  // Depths 16 and 32 need more than 16 rounds. The null has not reached
  // sink() when the cap hits, so the run cannot report it; it reports
  // the cut instead (MIX303), so the program never passes as clean.
  for (unsigned Depth : {16u, 32u}) {
    SCOPED_TRACE("depth " + std::to_string(Depth));
    mix::obs::MetricsRegistry Reg;
    MixyOptions Opts;
    Opts.Metrics = &Reg;
    MixyStats Stats;
    EXPECT_EQ(mixyWarnings(corpus::deepCallChain(Depth), Opts, &Stats), 1u)
        << LastDiags;
    EXPECT_EQ(Stats.FixpointIterations, MixyAnalysis::MaxFixpointRounds);
    EXPECT_EQ(Reg.counterValue("engine.fixpoint.cut"), 1u);
    EXPECT_EQ(lastCount(DiagID::ExecBudget), 1u) << LastDiags;
    EXPECT_NE(LastDiags.find("fixpoint budget exhausted"), std::string::npos)
        << LastDiags;
  }
}

// --- MIXY's fixpoint loop ----------------------------------------------------
//
// MixyAnalysis::run drives the fixpoint itself: Gauss-Seidel rounds over
// the frontier call sites, at most MaxFixpointRounds of them, then one
// refresh-only pass that tells a converged run from a cut one.

namespace {
class FixpointDriverTest : public MixyTest {};
} // namespace

TEST_F(FixpointDriverTest, AllSchedulesReachTheSameFixpoint) {
  // The null moves one link per round, so depth D needs D + 1 rounds
  // that change something. Every site's context holds every pointer
  // global's seed, so the re-runs grow as D * (D + 1). With the block
  // cache off each re-run executes its block again instead of replaying
  // a cached result; the rounds, the re-runs and the answer stay the
  // same.
  struct Case {
    unsigned Depth, Rounds, Reruns;
  };
  for (Case C : {Case{5, 6, 30}, Case{15, 16, 240}}) {
    for (bool Cache : {true, false}) {
      SCOPED_TRACE("depth " + std::to_string(C.Depth) +
                   (Cache ? ", cache on" : ", cache off"));
      mix::obs::MetricsRegistry Reg;
      MixyOptions Opts;
      Opts.EnableCache = Cache;
      Opts.Metrics = &Reg;
      MixyStats Stats;
      EXPECT_EQ(mixyWarnings(corpus::deepCallChain(C.Depth), Opts, &Stats),
                1u)
          << LastDiags;
      EXPECT_EQ(Stats.FixpointIterations, C.Rounds);
      EXPECT_EQ(Reg.counterValue("mixy.fixpoint_rounds"), C.Rounds);
      EXPECT_EQ(Reg.counterValue("engine.fixpoint.reruns"), C.Reruns);
      EXPECT_EQ(Reg.counterValue("engine.fixpoint.cut"), 0u);
      EXPECT_EQ(lastCount(DiagID::NullWarning), 1u) << LastDiags;
    }
  }
}

TEST_F(FixpointDriverTest, RoundCapCutIsReported) {
  // Depth 15 needs exactly the 16 rounds the cap allows, and its last
  // round converges, which the refresh-only pass confirms. Depth 16
  // needs one round more: the refresh-only pass after round 16 still
  // sees a context change, so the run counts engine.fixpoint.cut and
  // reports the cut (MIX303) at the site whose context still changes.
  struct Case {
    unsigned Depth, Cut;
  };
  for (Case C : {Case{15, 0}, Case{16, 1}}) {
    SCOPED_TRACE("depth " + std::to_string(C.Depth));
    mix::obs::MetricsRegistry Reg;
    MixyOptions Opts;
    Opts.Metrics = &Reg;
    MixyStats Stats;
    mixyWarnings(corpus::deepCallChain(C.Depth), Opts, &Stats);
    EXPECT_EQ(Stats.FixpointIterations, MixyAnalysis::MaxFixpointRounds);
    EXPECT_EQ(Reg.counterValue("mixy.fixpoint_rounds"),
              MixyAnalysis::MaxFixpointRounds);
    EXPECT_EQ(Reg.counterValue("engine.fixpoint.cut"), C.Cut);
    EXPECT_EQ(lastCount(DiagID::ExecBudget), C.Cut) << LastDiags;
  }
  EXPECT_NE(LastDiags.find("73:9"), std::string::npos) << LastDiags;
  EXPECT_NE(LastDiags.find("fixpoint budget exhausted"), std::string::npos)
      << LastDiags;
}

// --- block runs cut short by the executor's bounds ---------------------------

TEST_F(MixyTest, TruncatedBlockRunWarns) {
  // blk's loop counts to 20, past the executor's loop bound of 8, so the
  // run is cut short before g becomes null and the null reaching
  // sysutil_free is missed. The cut itself is reported (MIX303), once,
  // so the program does not pass as clean.
  EXPECT_EQ(mixyWarnings(corpus::countedLoopBlock(20)), 1u) << LastDiags;
  EXPECT_EQ(lastCount(DiagID::ExecBudget), 1u) << LastDiags;
  EXPECT_EQ(lastCount(DiagID::NullWarning), 0u) << LastDiags;
  EXPECT_NE(LastDiags.find("'blk' was cut short"), std::string::npos)
      << LastDiags;

  // Counting to 5 stays within the bound: the complete run finds the
  // null, and there is no cut to report.
  EXPECT_EQ(mixyWarnings(corpus::countedLoopBlock(5)), 1u) << LastDiags;
  EXPECT_EQ(lastCount(DiagID::NullWarning), 1u) << LastDiags;
  EXPECT_EQ(lastCount(DiagID::ExecBudget), 0u) << LastDiags;
}

TEST_F(MixyTest, TruncatedSymbolicEntryRunWarns) {
  // The --start=symbolic entry run reports its own cut the same way.
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const std::string Source = corpus::countedLoopBlock(20);
  const CProgram *P = parseC(Source, Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  MixyAnalysis Mixy(*P, Ctx, Diags);
  EXPECT_EQ(Mixy.run(MixyAnalysis::StartMode::Symbolic, "blk"), 1u)
      << Diags.str();
  ASSERT_EQ(Diags.diagnostics().size(), 1u) << Diags.str();
  EXPECT_EQ(Diags.diagnostics()[0].ID, DiagID::ExecBudget);
}

TEST_F(MixyTest, NestedSymbolicRunKeepsTheOuterRunsCut) {
  // blk's loop is cut by the loop bound. Its call t(1) is a typed block
  // that calls the symbolic s, a second run on the same executor. That
  // nested run has its own budget and does not clear blk's cut, so blk
  // still reports it, once.
  const char *Source = R"(int s(int a) MIX(symbolic) { return a; }
int t(int a) MIX(typed) { return s(a); }
void blk(void) MIX(symbolic) { int i; i = 0; while (i < 20) { i = i + 1; } t(1); }
int main(void) { blk(); return 0; }
)";
  EXPECT_EQ(mixyWarnings(Source), 1u) << LastDiags;
  EXPECT_EQ(lastCount(DiagID::ExecBudget), 1u) << LastDiags;
  EXPECT_NE(LastDiags.find("3:9"), std::string::npos) << LastDiags;
  EXPECT_NE(LastDiags.find("'blk' was cut short"), std::string::npos)
      << LastDiags;
}

// --- Block scope inside symbolic blocks ------------------------------------

TEST_F(MixyTest, BranchDeclarationEndsWithTheBranch) {
  // The branch's `int *g` ends with the branch (the binder's scope rule),
  // so sink gets the global g, which main set to null, not &x.
  const char *Source = R"(
int *g;
void sink(int * nonnull p) MIX(typed);
void f(int c) MIX(symbolic) {
  int x;
  x = 0;
  if (1) { int *g; g = &x; }
  sink(g);
}
int main(void) { g = NULL; f(1); return 0; }
)";
  EXPECT_EQ(mixyWarnings(Source), 1u) << LastDiags;
  EXPECT_NE(
      LastDiags.find("null value may reach nonnull position 'param p of sink'"),
      std::string::npos)
      << LastDiags;
}

TEST_F(MixyTest, BranchRedeclarationGivesTheOuterLocalBack) {
  // Both p's share one local slot. Leaving the branch gives the slot its
  // outer object back, which holds null, so sink gets null, not &x.
  const char *Source = R"(
void sink(int * nonnull p) MIX(typed);
void f(int c) MIX(symbolic) {
  int x;
  int *p;
  x = 0;
  p = NULL;
  if (1) { int *p; p = &x; }
  sink(p);
}
int main(void) { f(1); return 0; }
)";
  EXPECT_EQ(mixyWarnings(Source), 1u) << LastDiags;
  EXPECT_NE(
      LastDiags.find("null value may reach nonnull position 'param p of sink'"),
      std::string::npos)
      << LastDiags;
}

TEST_F(MixyTest, TrueErrorsAreStillReported) {
  // Soundness direction: MIXY removes false positives, not true ones.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
void helper(int *p) MIX(symbolic) {
  sysutil_free((void*)p);
}
int main(void) {
  helper(NULL);
  return 0;
}
)";
  EXPECT_GE(mixyWarnings(Source), 1u);
}

TEST_F(MixyTest, SymbolicStartMode) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const std::string Source = corpus::vsftpdCase(1, true);
  const CProgram *P = parseC(Source, Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  MixyAnalysis Mixy(*P, Ctx, Diags);
  // Start symbolically at sockaddr_clear itself.
  unsigned W = Mixy.run(MixyAnalysis::StartMode::Symbolic, "sockaddr_clear");
  EXPECT_EQ(W, 0u) << Diags.str();
}

// === additional end-to-end coverage ==========================================

TEST_F(MixyTest, WarnAllDereferencesMode) {
  // The "annotate all dereferences" mode the paper mentions as the
  // heavyweight alternative to the single sysutil_free annotation.
  const char *Source = R"(
int deref(int *p) { return *p; }
int main(void) {
  int *x = NULL;
  return deref(x);
}
)";
  MixyOptions Opts;
  Opts.Qual.WarnAllDereferences = true;
  EXPECT_GE(mixyWarnings(Source, Opts), 1u);
  // Default mode: no nonnull annotations anywhere, so no warnings.
  EXPECT_EQ(mixyWarnings(Source), 0u);
}

TEST_F(MixyTest, ScaledCorpusParsesAndAnalyzes) {
  // The E5 workload end to end: parse + full MIXY run on the corpus with
  // filler modules and annotated symbolic blocks.
  std::string Source = corpus::vsftpdScaled(true, 6, 3);
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC(Source, Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  MixyOptions NoAlias;
  NoAlias.RestoreAliasing = false;
  MixyAnalysis Analysis(*P, Ctx, Diags, NoAlias);
  EXPECT_EQ(Analysis.run(MixyAnalysis::StartMode::Typed, "filler_main"),
            0u)
      << Diags.str();
  EXPECT_GE(Analysis.stats().SymbolicCallsFromTyped, 3u);
}

TEST_F(MixyTest, SymbolicStartOnCase3Block) {
  // Begin execution inside main_BLOCK itself: the whole case-3 machinery
  // (inlined dns_resolve, the gethostbyname model, the typed frontier at
  // sysutil_free) runs from symbolic mode.
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const std::string Source = corpus::vsftpdCase(3, true);
  const CProgram *P = parseC(Source, Ctx, Diags);
  ASSERT_NE(P, nullptr) << Diags.str();
  MixyAnalysis Mixy(*P, Ctx, Diags);
  EXPECT_EQ(Mixy.run(MixyAnalysis::StartMode::Symbolic, "main_BLOCK"), 0u)
      << Diags.str();
  // Note: sysutil_free (the only MIX(typed) frontier) is never reached on
  // a feasible path here — sockaddr_clear's then-branch is infeasible
  // because *p_sock is definitely NULL at that point. That the executor
  // proves this is the point of the case study.
  EXPECT_GE(Mixy.stats().SymbolicBlockRuns, 1u);
}

TEST_F(MixyTest, MissingEntryIsAnError) {
  CAstContext Ctx;
  DiagnosticEngine Diags;
  const CProgram *P = parseC("int f(void) { return 0; }", Ctx, Diags);
  ASSERT_NE(P, nullptr);
  MixyAnalysis Mixy(*P, Ctx, Diags);
  Mixy.run(MixyAnalysis::StartMode::Typed, "main");
  EXPECT_TRUE(Diags.hasErrors());
}

TEST_F(MixyTest, IncompatibleContextsAreAnalyzedSeparately) {
  // Two call sites with *different* nullness contexts must not share a
  // cache entry: the maybe-null caller warns, the nonnull caller's path
  // stays clean, and both behaviours coexist.
  const char *Source = R"(
void sysutil_free(void * nonnull p_ptr) MIX(typed);
int g;
void helper(int *p) MIX(symbolic) {
  sysutil_free((void*)p);
}
int *maybe(void) { return NULL; }
void caller_ok(void) { helper(&g); }
void caller_bad(void) { helper(maybe()); }
int main(void) { caller_ok(); caller_bad(); return 0; }
)";
  MixyStats Stats;
  EXPECT_GE(mixyWarnings(Source, MixyOptions(), &Stats), 1u);
  // Two distinct contexts: two symbolic runs, no (cross-context) hit.
  EXPECT_GE(Stats.SymbolicBlockRuns, 2u);
}
