//===--- EngineTest.cpp - Shared mix-engine tests -------------------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The engine layer (src/engine/) is the generic recipe every mix
// instantiation runs through: the Section-4.3 block cache and the
// Section-4.4 block stack with recursion cut-off and assumption
// iteration. These tests drive it with a formal-MIX-shaped domain —
// keys are (AST node, typing-context signature) pairs, outcomes are
// type-like values — so the cut-off and iteration behavior the paper
// specifies is pinned down independently of any one instantiation.
//
//===----------------------------------------------------------------------===//

#include "engine/MixEngine.h"

#include <gtest/gtest.h>

#include <algorithm>
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

  EXPECT_EQ(E.runSymbolic(K, H), 42);
  EXPECT_EQ(E.runSymbolic(K, H), 42);
  EXPECT_EQ(Evals, 1);
  EXPECT_EQ(Hits, 1);
  EXPECT_EQ(Metrics.counterValue("engine.test.blocks"), 1u);
  EXPECT_EQ(Metrics.counterValue("engine.cache.test.hits"), 1u);
  EXPECT_EQ(E.symCacheStats().Inserts, 1u);
  // The first lookup found nothing: one miss, and the hit is the second.
  EXPECT_EQ(E.symCacheStats().Misses, 1u);
  EXPECT_EQ(E.symCacheStats().Hits, 1u);

  // A different typing context is a different block analysis.
  EXPECT_EQ(E.runSymbolic(Key{&NodeA, "x:bool"}, H), 42);
  EXPECT_EQ(Evals, 2);
  EXPECT_EQ(E.symCacheStats().Misses, 2u);
  EXPECT_EQ(E.symCacheStats().Hits, 1u);
}

TEST(MixEngineTest, SymAndTypedCachesAreIndependent) {
  Engine E(config());
  Key K{&NodeA, "x:int"};

  RunHooks<int> Sym;
  Sym.Eval = [] { return 1; };
  RunHooks<int> Typed;
  Typed.Eval = [] { return 2; };

  EXPECT_EQ(E.runSymbolic(K, Sym), 1);
  // Same key on the typed side must not hit the symbolic entry.
  EXPECT_EQ(E.runTyped(K, Typed), 2);
  EXPECT_EQ(E.symCacheStats().Hits, 0u);
  EXPECT_EQ(E.typedCacheStats().Hits, 0u);
  EXPECT_EQ(E.runTyped(K, Typed), 2);
  EXPECT_EQ(E.typedCacheStats().Hits, 1u);
}

// The Section 4.4 contract: a block that re-enters itself gets the
// current assumption back instead of diverging, and the enclosing
// evaluation re-runs with the actual result as the updated assumption
// until assumption and result agree.
TEST(MixEngineTest, RecursionCutoffIteratesToAgreement) {
  obs::MetricsRegistry Metrics;
  Engine E(config(&Metrics));
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
    int Assumed = E.runSymbolic(K, Nested);
    // Monotone body: converges when the assumption reaches 3.
    return std::min(Assumed + 1, 3);
  };

  EXPECT_EQ(E.runSymbolic(K, H), 3);
  // Assumptions 0 -> 1 -> 2 -> 3, then 3 agrees with the result.
  EXPECT_EQ(Evals, 4);
  EXPECT_EQ(Cutoffs, 4);
  EXPECT_EQ(Iterations, (std::vector<unsigned>{0, 1, 2, 3}));
  EXPECT_TRUE(E.stack().empty());
  EXPECT_EQ(Metrics.counterValue("engine.test.recursions"), 4u);
  // One push for the whole iteration, and the converged result cached.
  EXPECT_EQ(Metrics.counterValue("engine.test.blocks"), 1u);
  EXPECT_EQ(E.runSymbolic(K, H), 3);
  EXPECT_EQ(Evals, 4);
}

TEST(MixEngineTest, RecursionIterationIsBounded) {
  Engine E(config());
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.Init = [] { return 0; };
  H.Eval = [&] {
    ++Evals;
    RunHooks<int> Nested = H;
    return E.runSymbolic(K, Nested) + 1; // never agrees
  };
  EXPECT_EQ(E.runSymbolic(K, H), 8);
  EXPECT_EQ(Evals, 8);
  EXPECT_TRUE(E.stack().empty());
}

TEST(MixEngineTest, KeepIteratingFalseStopsEarly) {
  Engine E(config());
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.Init = [] { return 0; };
  H.KeepIterating = [](const int &V) { return V >= 0; };
  H.Eval = [&] {
    ++Evals;
    RunHooks<int> Nested = H;
    (void)E.runSymbolic(K, Nested);
    return -1; // a failure outcome iteration cannot improve
  };
  EXPECT_EQ(E.runSymbolic(K, H), -1);
  EXPECT_EQ(Evals, 1);
}

TEST(MixEngineTest, ShouldCacheFalseReRunsNextCall) {
  Engine E(config());
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.ShouldCache = [](const int &V) { return V >= 0; };
  H.Eval = [&] {
    ++Evals;
    return -1; // failure: later calls must re-diagnose
  };
  EXPECT_EQ(E.runSymbolic(K, H), -1);
  EXPECT_EQ(E.runSymbolic(K, H), -1);
  EXPECT_EQ(Evals, 2);
  EXPECT_EQ(E.symCacheStats().Inserts, 0u);
}

TEST(MixEngineTest, DisabledCacheNeverStoresOrCounts) {
  Engine::Config C = config();
  C.EnableCache = false;
  Engine E(C);
  Key K{&NodeA, ""};

  int Evals = 0;
  RunHooks<int> H;
  H.Eval = [&] {
    ++Evals;
    return 7;
  };
  EXPECT_EQ(E.runSymbolic(K, H), 7);
  EXPECT_EQ(E.runSymbolic(K, H), 7);
  EXPECT_EQ(Evals, 2);
  BlockCacheStats S = E.symCacheStats();
  EXPECT_EQ(S.Hits + S.Misses + S.Inserts, 0u);
}

TEST(MixEngineTest, ReplayAnswersWithoutEvaluationAndWarmsTheCache) {
  Engine E(config());
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
  EXPECT_EQ(E.runSymbolic(K, H), 9);
  EXPECT_EQ(E.runSymbolic(K, H), 9); // in-memory hit, not replay
  EXPECT_EQ(Evals, 0);
  EXPECT_EQ(Replays, 1);
  EXPECT_EQ(E.symCacheStats().Hits, 1u);
}

TEST(MixEngineTest, EvalBeginEndBracketTheRunOutsideTheStack) {
  Engine E(config());
  Key K{&NodeA, ""};

  bool SawBegin = false;
  RunHooks<int> H;
  H.OnEvalBegin = [&] {
    SawBegin = true;
    ASSERT_EQ(E.stack().size(), 1u);
    EXPECT_TRUE(E.stack().back().Symbolic);
  };
  H.OnEvalEnd = [&](const int &V) {
    EXPECT_EQ(V, 4);
    // The entry is popped before OnEvalEnd so provenance hooks see the
    // caller's stack.
    EXPECT_TRUE(E.stack().empty());
  };
  H.Eval = [] { return 4; };
  EXPECT_EQ(E.runSymbolic(K, H), 4);
  EXPECT_TRUE(SawBegin);
}
