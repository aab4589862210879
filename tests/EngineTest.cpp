//===--- EngineTest.cpp - Shared mix-engine tests -------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The engine layer (src/engine/) is the generic recipe every mix
// instantiation runs through: the Section-4.3 block cache, the
// Section-4.4 block stack with recursion cut-off and assumption
// iteration, and the fixpoint scheduler. These tests drive it with a
// formal-MIX-shaped domain — keys are (AST node, typing-context
// signature) pairs, outcomes are type-like values — so the cut-off and
// iteration behavior the paper specifies is pinned down independently of
// any one instantiation.
//
//===----------------------------------------------------------------------===//

#include "engine/Fixpoint.h"
#include "engine/MixEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <vector>

using namespace mix::engine;
namespace obs = mix::obs;

namespace {

/// The shape of the formal MIX domain: a block analysis is identified by
/// the block (an AST node address) plus the typing context it was entered
/// under, and produces a type-like outcome (0 = "no type yet", the
/// optimistic assumption).
struct TestDomain {
  struct Key {
    const void *Node = nullptr;
    std::string Sig;

    bool operator==(const Key &O) const {
      return Node == O.Node && Sig == O.Sig;
    }
    bool operator<(const Key &O) const {
      return std::tie(Node, Sig) < std::tie(O.Node, O.Sig);
    }
  };
  using SymOutcome = int;
  using TypedOutcome = int;
  static constexpr const char *Name = "test";
};

using Engine = MixEngine<TestDomain>;
using Key = TestDomain::Key;

int NodeA;

Engine::Config config(obs::MetricsRegistry *Metrics = nullptr) {
  Engine::Config C;
  C.Metrics = Metrics;
  return C;
}

} // namespace

TEST(MixEngineTest, CacheHitSkipsEvaluation) {
  obs::MetricsRegistry Metrics;
  Engine E(config(&Metrics));
  Engine::BlockStack Stack;
  Key K{&NodeA, "x:int"};

  int Evals = 0;
  int Hits = 0;
  RunHooks<int> H;
  H.Eval = [&] {
    ++Evals;
    return 42;
  };
  H.OnCacheHit = [&](const int &V) {
    EXPECT_EQ(V, 42);
    ++Hits;
  };

  EXPECT_EQ(E.runSymbolic(K, Stack, H), 42);
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 42);
  EXPECT_EQ(Evals, 1);
  EXPECT_EQ(Hits, 1);
  EXPECT_EQ(Metrics.counterValue("engine.test.blocks"), 1u);
  EXPECT_EQ(Metrics.counterValue("engine.cache.test.hits"), 1u);
  EXPECT_EQ(E.symCacheStats().Inserts, 1u);

  // A different typing context is a different block analysis.
  EXPECT_EQ(E.runSymbolic(Key{&NodeA, "x:bool"}, Stack, H), 42);
  EXPECT_EQ(Evals, 2);
}

TEST(MixEngineTest, SymAndTypedCachesAreIndependent) {
  Engine E(config());
  Engine::BlockStack Stack;
  Key K{&NodeA, "x:int"};

  RunHooks<int> Sym;
  Sym.Eval = [] { return 1; };
  RunHooks<int> Typed;
  Typed.Eval = [] { return 2; };

  EXPECT_EQ(E.runSymbolic(K, Stack, Sym), 1);
  // Same key on the typed side must not hit the symbolic entry.
  EXPECT_EQ(E.runTyped(K, Stack, Typed), 2);
  EXPECT_EQ(E.symCacheStats().Hits, 0u);
  EXPECT_EQ(E.typedCacheStats().Hits, 0u);
  EXPECT_EQ(E.runTyped(K, Stack, Typed), 2);
  EXPECT_EQ(E.typedCacheStats().Hits, 1u);
}

// The Section 4.4 contract: a block that re-enters itself gets the
// current assumption back instead of diverging, and the enclosing
// evaluation re-runs with the actual result as the updated assumption
// until assumption and result agree.
TEST(MixEngineTest, RecursionCutoffIteratesToAgreement) {
  obs::MetricsRegistry Metrics;
  Engine E(config(&Metrics));
  Engine::BlockStack Stack;
  Key K{&NodeA, "f:int->int"};

  int Evals = 0;
  int Cutoffs = 0;
  std::vector<unsigned> Iterations;
  RunHooks<int> H;
  H.Init = [] { return 0; }; // optimistic "no type yet"
  H.OnRecursion = [&] { ++Cutoffs; };
  H.OnIteration = [&](unsigned I) { Iterations.push_back(I); };
  H.Eval = [&] {
    ++Evals;
    // The block calls itself: the nested run must be answered by the
    // stack, with the in-flight assumption.
    RunHooks<int> Nested = H;
    int Assumed = E.runSymbolic(K, Stack, Nested);
    // Monotone body: converges when the assumption reaches 3.
    return std::min(Assumed + 1, 3);
  };

  EXPECT_EQ(E.runSymbolic(K, Stack, H), 3);
  // Assumptions 0 -> 1 -> 2 -> 3, then 3 agrees with the result.
  EXPECT_EQ(Evals, 4);
  EXPECT_EQ(Cutoffs, 4);
  EXPECT_EQ(Iterations, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_TRUE(Stack.empty());
  EXPECT_EQ(Metrics.counterValue("engine.test.recursions"), 4u);
  // One push for the whole iteration, and the converged result cached.
  EXPECT_EQ(Metrics.counterValue("engine.test.blocks"), 1u);
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 3);
  EXPECT_EQ(Evals, 4);
}

TEST(MixEngineTest, RecursionIterationIsBounded) {
  Engine::Config C = config();
  C.MaxRecursionIterations = 5;
  Engine E(C);
  Engine::BlockStack Stack;
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.Init = [] { return 0; };
  H.Eval = [&] {
    ++Evals;
    RunHooks<int> Nested = H;
    return E.runSymbolic(K, Stack, Nested) + 1; // never agrees
  };
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 5);
  EXPECT_EQ(Evals, 5);
  EXPECT_TRUE(Stack.empty());
}

TEST(MixEngineTest, KeepIteratingFalseStopsEarly) {
  Engine E(config());
  Engine::BlockStack Stack;
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.Init = [] { return 0; };
  H.KeepIterating = [](const int &V) { return V >= 0; };
  H.Eval = [&] {
    ++Evals;
    RunHooks<int> Nested = H;
    (void)E.runSymbolic(K, Stack, Nested);
    return -1; // a failure outcome iteration cannot improve
  };
  EXPECT_EQ(E.runSymbolic(K, Stack, H), -1);
  EXPECT_EQ(Evals, 1);
}

TEST(MixEngineTest, ShouldCacheFalseReRunsNextCall) {
  Engine E(config());
  Engine::BlockStack Stack;
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.ShouldCache = [](const int &V) { return V >= 0; };
  H.Eval = [&] {
    ++Evals;
    return -1; // failure: later calls must re-diagnose
  };
  EXPECT_EQ(E.runSymbolic(K, Stack, H), -1);
  EXPECT_EQ(E.runSymbolic(K, Stack, H), -1);
  EXPECT_EQ(Evals, 2);
  EXPECT_EQ(E.symCacheStats().Inserts, 0u);
}

TEST(MixEngineTest, DisabledCacheNeverStoresOrCounts) {
  Engine::Config C = config();
  C.EnableCache = false;
  Engine E(C);
  Engine::BlockStack Stack;
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.Eval = [&] {
    ++Evals;
    return 7;
  };
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 7);
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 7);
  EXPECT_EQ(Evals, 2);
  BlockCacheStats S = E.symCacheStats();
  EXPECT_EQ(S.Hits + S.Misses + S.Inserts, 0u);
}

TEST(MixEngineTest, ReplayAnswersWithoutEvaluationAndWarmsTheCache) {
  Engine E(config());
  Engine::BlockStack Stack;
  Key K{&NodeA, ""};

  int Evals = 0;
  int Replays = 0;
  RunHooks<int> H;
  H.Replay = [&]() -> std::optional<int> {
    ++Replays;
    return 9;
  };
  H.Eval = [&] {
    ++Evals;
    return 0;
  };
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 9);
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 9); // in-memory hit, not replay
  EXPECT_EQ(Evals, 0);
  EXPECT_EQ(Replays, 1);
  EXPECT_EQ(E.symCacheStats().Hits, 1u);
}

TEST(MixEngineTest, EvalBeginEndBracketTheRunOutsideTheStack) {
  Engine E(config());
  Engine::BlockStack Stack;
  Key K{&NodeA, ""};

  bool SawBegin = false;
  RunHooks<int> H;
  H.OnEvalBegin = [&] {
    SawBegin = true;
    ASSERT_EQ(Stack.size(), 1u);
    EXPECT_TRUE(Stack.back().Symbolic);
  };
  H.OnEvalEnd = [&](const int &V) {
    EXPECT_EQ(V, 4);
    // The entry is popped before OnEvalEnd so provenance hooks see the
    // caller's stack.
    EXPECT_TRUE(Stack.empty());
  };
  H.Eval = [] { return 4; };
  EXPECT_EQ(E.runSymbolic(K, Stack, H), 4);
  EXPECT_TRUE(SawBegin);
}

// --- FixpointDriver ----------------------------------------------------------

namespace {

/// A synthetic monotone constraint system shaped like MIXY's deep call
/// chain: site i's context is the value of site i+1 (the last site reads
/// an external target), and evaluating a site copies its context into
/// its value. The driver visits sites in index order, so the target
/// moves one link per round: N sites need exactly N rounds that change
/// something. The least fixpoint sets every value to the target.
struct ChainSystem {
  explicit ChainSystem(size_t N, int Target) : Target(Target), Ctx(N, -1),
                                               Val(N, 0) {}

  FixpointCallbacks callbacks() {
    FixpointCallbacks CB;
    CB.NumSites = [this] { return Ctx.size(); };
    CB.Refresh = [this](size_t I) {
      int New = I + 1 == Ctx.size() ? Target : Val[I + 1];
      if (New == Ctx[I])
        return false;
      Ctx[I] = New;
      return true;
    };
    CB.Evaluate = [this](size_t I) { Val[I] = Ctx[I]; };
    return CB;
  }

  int Target;
  std::vector<int> Ctx, Val;
};

} // namespace

TEST(FixpointDriverTest, AllSchedulesReachTheSameFixpoint) {
  ChainSystem S(6, 7);
  obs::MetricsRegistry Metrics;
  FixpointConfig C;
  C.Metrics = &Metrics;
  FixpointDriver D(C);
  FixpointResult R = D.run(S.callbacks());
  EXPECT_EQ(R.Rounds, 6u);
  EXPECT_TRUE(R.Converged);
  for (int V : S.Val)
    EXPECT_EQ(V, 7);
  EXPECT_EQ(Metrics.counterValue("engine.fixpoint.rounds"), 6u);
  // Each round after the first re-evaluates one site: the one the target
  // just reached.
  EXPECT_EQ(Metrics.counterValue("engine.worklist.reruns"), 5u);
}

TEST(FixpointDriverTest, RoundCapCutIsReported) {
  // Six sites need six rounds. A cap of five stops one link short, and
  // the refresh-only pass after the last round sees a context still
  // changing; a cap of exactly six converges in its last round, which
  // the same pass confirms. Only the cut run counts engine.fixpoint.cut.
  ChainSystem Short(6, 7);
  obs::MetricsRegistry CutMetrics;
  FixpointConfig C;
  C.MaxRounds = 5;
  C.Metrics = &CutMetrics;
  FixpointResult Cut = FixpointDriver(C).run(Short.callbacks());
  EXPECT_EQ(Cut.Rounds, 5u);
  EXPECT_FALSE(Cut.Converged);
  EXPECT_NE(Short.Val[0], 7);
  EXPECT_EQ(CutMetrics.counterValue("engine.fixpoint.cut"), 1u);

  ChainSystem Exact(6, 7);
  obs::MetricsRegistry DoneMetrics;
  C.MaxRounds = 6;
  C.Metrics = &DoneMetrics;
  FixpointResult Done = FixpointDriver(C).run(Exact.callbacks());
  EXPECT_EQ(Done.Rounds, 6u);
  EXPECT_TRUE(Done.Converged);
  for (int V : Exact.Val)
    EXPECT_EQ(V, 7);
  EXPECT_EQ(DoneMetrics.counterValue("engine.fixpoint.cut"), 0u);
}

TEST(FixpointDriverTest, SerialPicksUpSitesAppendedMidRound) {
  // A site evaluation that discovers a new site (MIXY: a nested block
  // hitting a new frontier call) must see it analyzed before the driver
  // declares a fixpoint.
  std::vector<int> Ctx(1, -1), Val(1, 0);
  FixpointCallbacks CB;
  CB.NumSites = [&] { return Ctx.size(); };
  CB.Refresh = [&](size_t I) {
    int New = I == 0 ? 1 : Val[0];
    if (New == Ctx[I])
      return false;
    Ctx[I] = New;
    return true;
  };
  CB.Evaluate = [&](size_t I) {
    Val[I] = Ctx[I];
    if (I == 0 && Ctx.size() == 1) {
      Ctx.push_back(-1);
      Val.push_back(0);
    }
  };
  FixpointDriver D((FixpointConfig()));
  EXPECT_TRUE(D.run(CB).Converged);
  ASSERT_EQ(Val.size(), 2u);
  EXPECT_EQ(Val[1], 1);
}
