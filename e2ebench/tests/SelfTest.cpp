//===--- SelfTest.cpp - Tests of the benchmark itself ---------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Run with `python3 e2ebench/run.py --self-test`.
//
//===----------------------------------------------------------------------===//

#include "Inputs.h"
#include "SpeedProbe.h"
#include "Stats.h"

#include "cfront/CParser.h"
#include "lang/Parser.h"

#include <gtest/gtest.h>

#include <set>
#include <tuple>

using namespace e2e;

namespace {

std::string coreBytes(uint64_t Seed) {
  std::string Out;
  for (const CoreProgram &P : makeCorePrograms(Seed, 64, 7))
    Out += P.Source + "|" + P.Type + "\n";
  return Out;
}

std::string editBytes(uint64_t Seed) {
  MixyProgram P = makeMixyProgram(Seed, 24, 8);
  std::string Out;
  for (const MixyEdit &E : makeMixyEdits(Seed, P, 32))
    Out += applyEdit(P, E).source();
  return Out;
}

TEST(InputsTest, SameSeedGivesIdenticalBytes) {
  EXPECT_EQ(makeMixyProgram(7, 24, 8).source(),
            makeMixyProgram(7, 24, 8).source());
  EXPECT_EQ(makeMixyProgram(7, 1000, 0).source(),
            makeMixyProgram(7, 1000, 0).source());
  EXPECT_EQ(coreBytes(7), coreBytes(7));
  EXPECT_EQ(editBytes(7), editBytes(7));
}

TEST(InputsTest, DifferentSeedGivesDifferentBytes) {
  EXPECT_NE(makeMixyProgram(7, 24, 8).source(),
            makeMixyProgram(8, 24, 8).source());
  EXPECT_NE(coreBytes(7), coreBytes(8));
  EXPECT_NE(editBytes(7), editBytes(8));
}

TEST(InputsTest, MixyProgramsHaveTheRequestedShape) {
  MixyProgram P = makeMixyProgram(3, 24, 8);
  ASSERT_EQ(P.Modules.size(), 24u);
  unsigned Symbolic = 0;
  for (const FillerModule &M : P.Modules)
    Symbolic += M.Symbolic;
  EXPECT_EQ(Symbolic, 8u);
  for (bool WithCorpus : {true, false}) {
    P.WithCorpus = WithCorpus;
    std::string Src = P.source();
    EXPECT_EQ(Src.find("main_BLOCK") != std::string::npos, WithCorpus);
    mix::c::CAstContext Ctx;
    mix::DiagnosticEngine Diags;
    EXPECT_NE(mix::c::parseC(Src, Ctx, Diags), nullptr) << Diags.str();
  }
}

TEST(InputsTest, EditsTouchOnlySymbolicModulesAndRarelyRepeat) {
  MixyProgram P = makeMixyProgram(5, 24, 8);
  std::vector<MixyEdit> Edits = makeMixyEdits(5, P, 4096);
  std::set<std::tuple<unsigned, unsigned, int>> Seen;
  for (const MixyEdit &E : Edits) {
    ASSERT_TRUE(P.Modules[E.Module].Symbolic);
    Seen.insert({E.Module, E.Branch, E.Value});
  }
  EXPECT_GT(Seen.size(), 4050u);
}

TEST(InputsTest, CoreProgramsAllParseAndCoverEveryKind) {
  unsigned Kinds[3] = {0, 0, 0};
  for (unsigned Depth : {5u, 7u}) {
    for (const CoreProgram &P : makeCorePrograms(11, 500, Depth)) {
      mix::AstContext Ctx;
      mix::DiagnosticEngine Diags;
      EXPECT_NE(mix::parseExpression(P.Source, Ctx, Diags), nullptr)
          << P.Source << "\n"
          << Diags.str();
      ++Kinds[(unsigned)P.K];
      EXPECT_EQ(P.Accepted, P.K != CoreProgram::Kind::TypedError);
      EXPECT_EQ(P.Type.empty(), !P.Accepted);
    }
  }
  for (unsigned K : Kinds)
    EXPECT_GT(K, 50u);
}

TEST(InputsTest, NegativeLiteralsAreWrittenAsSubtractions) {
  for (const CoreProgram &P : makeCorePrograms(2, 200, 7)) {
    for (size_t I = P.Source.find('-'); I != std::string::npos;
         I = P.Source.find('-', I + 1)) {
      // Only "(0 - n)", "a - b" and the "->" of a function literal.
      ASSERT_GT(I, 0u);
      bool Arrow = P.Source[I + 1] == '>';
      bool Binary = P.Source[I - 1] == ' ' && P.Source[I + 1] == ' ';
      EXPECT_TRUE(Arrow || Binary) << P.Source;
    }
  }
}

TEST(StatsTest, PercentileInterpolatesBetweenRanks) {
  std::vector<double> V = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT_DOUBLE_EQ(percentile(V, 0), 1);
  EXPECT_DOUBLE_EQ(percentile(V, 100), 10);
  EXPECT_DOUBLE_EQ(percentile(V, 50), 5.5);
  EXPECT_DOUBLE_EQ(percentile(V, 90), 9.1);
  EXPECT_DOUBLE_EQ(median({4}), 4);
  EXPECT_DOUBLE_EQ(median({}), 0);
  EXPECT_DOUBLE_EQ(median({1, 2, 100}), 2);
}

TEST(StatsTest, RatioGuardsZeroDenominator) {
  EXPECT_DOUBLE_EQ(ratio(3, 4), 0.75);
  EXPECT_DOUBLE_EQ(ratio(3, 0), 0);
  EXPECT_DOUBLE_EQ(ratio(0, 0), 0);
}

TEST(StatsTest, BucketQuantileInterpolatesInsideTheBucket) {
  std::vector<uint64_t> B(8, 0);
  EXPECT_DOUBLE_EQ(bucketQuantile(B, 0.5), 0);
  B[3] = 4; // four values in [8, 16)
  EXPECT_DOUBLE_EQ(bucketQuantile(B, 0.5), 12);
  EXPECT_DOUBLE_EQ(bucketQuantile(B, 1.0), 16);
  B[1] = 4; // four more in [2, 4): the median is the top of that bucket
  EXPECT_DOUBLE_EQ(bucketQuantile(B, 0.5), 4);
  EXPECT_DOUBLE_EQ(bucketQuantile(B, 0.25), 3);
}

TEST(StatsTest, SelfTimeCountsOverlappingChildrenOnce) {
  // Parent [0, 100); children overlap each other and stick out of it.
  std::vector<Interval> C = {{10, 30}, {20, 40}, {90, 120}, {50, 50}};
  EXPECT_EQ(coveredLength(C, {0, 100}), 40u);
  EXPECT_EQ(selfTime({0, 100}, C), 60u);
  EXPECT_EQ(selfTime({0, 100}, {}), 100u);
  EXPECT_EQ(selfTime({0, 10}, {{0, 50}}), 0u);
}

TEST(StatsTest, SpanTreeLinksByContainment) {
  SpanTree T;
  T.add("request", {0, 100});
  T.add("block", {10, 60});
  T.add("block", {20, 40}); // nested block of the same name
  T.add("query", {25, 30});
  T.add("render", {90, 95});
  T.add("direct", {200, 250}); // outside the request: a root
  T.link();
  const std::vector<Span> &S = T.spans();
  EXPECT_EQ(S[0].Parent, -1);
  EXPECT_EQ(S[1].Parent, 0);
  EXPECT_EQ(S[2].Parent, 1);
  EXPECT_EQ(S[3].Parent, 2);
  EXPECT_EQ(S[4].Parent, 0);
  EXPECT_EQ(S[5].Parent, -1);
  EXPECT_EQ(T.selfUs("request"), 100u - 50u - 5u);
  EXPECT_EQ(T.selfUs("block"), (50u - 20u) + (20u - 5u));
  EXPECT_EQ(T.outermostUs("block"), 50u);
}

TEST(SpeedProbeTest, KernelDoesTheSameWorkEveryTime) {
  SpeedProbe A, B;
  uint64_t Sum = A.runKernel();
  EXPECT_EQ(A.runKernel(), Sum);
  EXPECT_EQ(B.runKernel(), Sum);
  EXPECT_GT(A.sampleMs(), 0);
}

TEST(SpeedProbeTest, ScaleIsReferenceOverMeanProbeTime) {
  const double R = SpeedProbe::ReferenceMs;
  EXPECT_DOUBLE_EQ(SpeedProbe::scaleBetween(R, R), 1);
  EXPECT_DOUBLE_EQ(SpeedProbe::scaleBetween(2 * R, 2 * R), 0.5);
  EXPECT_DOUBLE_EQ(SpeedProbe::scaleBetween(R / 2, 3 * R / 2), 1);
}

TEST(SpeedProbeTest, ScaledClockScalesByTheProbesAroundTheWindow) {
  ScaledClock C(/*WindowSeconds=*/1000);
  C.note(2);
  C.note(4);
  C.tick(); // the window is still open
  EXPECT_TRUE(C.scaledMs().empty());
  C.finish();
  ASSERT_EQ(C.probeMs().size(), 2u);
  ASSERT_EQ(C.scaledMs().size(), 2u);
  double S = SpeedProbe::scaleBetween(C.probeMs()[0], C.probeMs()[1]);
  EXPECT_DOUBLE_EQ(C.scaledMs()[0], 2 * S);
  EXPECT_DOUBLE_EQ(C.scaledMs()[1], 4 * S);
  C.finish(); // nothing pending: no probe
  EXPECT_EQ(C.probeMs().size(), 2u);

  ScaledClock Each(/*WindowSeconds=*/0); // a probe after every time
  for (int I = 0; I != 3; ++I) {
    Each.note(1);
    Each.tick();
  }
  Each.finish();
  EXPECT_EQ(Each.probeMs().size(), 4u);
  EXPECT_EQ(Each.scaledMs().size(), 3u);
}

TEST(StatsTest, EqualIntervalsNestInInsertionOrder) {
  SpanTree T;
  T.add("outer", {5, 9});
  T.add("inner", {5, 9});
  T.link();
  EXPECT_EQ(T.spans()[0].Parent, -1);
  EXPECT_EQ(T.spans()[1].Parent, 0);
  EXPECT_EQ(T.selfUs("outer"), 0u);
  EXPECT_EQ(T.selfUs("inner"), 4u);
}

} // namespace
