//===--- BlockCacheStressTest.cpp - Concurrency tests for BlockCache ------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// The Section-4.3 block cache keeps one map under one mutex. These tests
// hammer it from 8 threads and check the contract: no lost inserts,
// first-insert-wins under races with every loser counted, exact hit/miss
// accounting, and clear() racing inserts safely. Run them under
// ThreadSanitizer in CI.
//
//===----------------------------------------------------------------------===//

#include "engine/BlockCache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <vector>

using namespace mix::engine;

namespace {

constexpr unsigned Threads = 8;

void runOnThreads(unsigned N, const std::function<void(unsigned)> &Body) {
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != N; ++T)
    Ts.emplace_back([&, T] { Body(T); });
  for (std::thread &T : Ts)
    T.join();
}

} // namespace

TEST(BlockCacheStressTest, DisjointInsertsAreNeverLost) {
  BlockCache<int, int> Cache;
  constexpr int PerThread = 2000;
  runOnThreads(Threads, [&](unsigned T) {
    for (int I = 0; I != PerThread; ++I) {
      int Key = (int)T * PerThread + I;
      EXPECT_TRUE(Cache.insert(Key, Key * 3));
    }
  });
  EXPECT_EQ(Cache.size(), (size_t)Threads * PerThread);
  BlockCacheStats S = Cache.stats();
  EXPECT_EQ(S.Inserts, (uint64_t)Threads * PerThread);
  EXPECT_EQ(S.DroppedInserts, 0u);
  // Every entry is present with the value its inserter wrote.
  for (int Key = 0; Key != (int)Threads * PerThread; ++Key) {
    auto V = Cache.lookup(Key);
    ASSERT_TRUE(V.has_value()) << "lost insert for key " << Key;
    EXPECT_EQ(*V, Key * 3);
  }
}

TEST(BlockCacheStressTest, RacingInsertsFirstWinsAndLosersAreCounted) {
  BlockCache<int, int> Cache;
  constexpr int Keys = 500;
  std::atomic<uint64_t> Wins{0};
  runOnThreads(Threads, [&](unsigned T) {
    for (int Key = 0; Key != Keys; ++Key)
      if (Cache.insert(Key, (int)T))
        ++Wins;
  });
  // Exactly one thread won each key; everyone else was dropped.
  EXPECT_EQ(Wins.load(), (uint64_t)Keys);
  EXPECT_EQ(Cache.size(), (size_t)Keys);
  BlockCacheStats S = Cache.stats();
  EXPECT_EQ(S.Inserts, (uint64_t)Keys);
  EXPECT_EQ(S.DroppedInserts, (uint64_t)(Threads - 1) * Keys);
  // The stored value is one of the racers' (a thread id), and stable.
  for (int Key = 0; Key != Keys; ++Key) {
    auto First = Cache.lookup(Key);
    ASSERT_TRUE(First.has_value());
    EXPECT_GE(*First, 0);
    EXPECT_LT(*First, (int)Threads);
    auto Second = Cache.lookup(Key);
    ASSERT_TRUE(Second.has_value());
    EXPECT_EQ(*First, *Second);
  }
}

TEST(BlockCacheStressTest, HitAndMissCountsAreExact) {
  BlockCache<int, std::string> Cache;
  constexpr int Keys = 256;
  for (int Key = 0; Key != Keys; ++Key)
    Cache.insert(Key, "v" + std::to_string(Key));
  BlockCacheStats Before = Cache.stats();
  EXPECT_EQ(Before.Hits, 0u);
  EXPECT_EQ(Before.Misses, 0u);

  constexpr int Rounds = 50;
  runOnThreads(Threads, [&](unsigned) {
    for (int R = 0; R != Rounds; ++R)
      for (int Key = 0; Key != 2 * Keys; ++Key) {
        auto V = Cache.lookup(Key);
        if (Key < Keys) {
          ASSERT_TRUE(V.has_value());
          ASSERT_EQ(*V, "v" + std::to_string(Key));
        } else {
          ASSERT_FALSE(V.has_value());
        }
      }
  });
  BlockCacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, (uint64_t)Threads * Rounds * Keys);
  EXPECT_EQ(S.Misses, (uint64_t)Threads * Rounds * Keys);
}

TEST(BlockCacheStressTest, MixedReadersAndWritersStayConsistent) {
  BlockCache<int, int> Cache;
  constexpr int Keys = 4096;
  runOnThreads(Threads, [&](unsigned T) {
    // Writers insert even keys, readers poll the whole range; whatever a
    // reader observes must be the canonical value (first insert wins and
    // every writer writes Key+1).
    if (T % 2 == 0) {
      for (int Key = 0; Key < Keys; Key += 2)
        Cache.insert(Key, Key + 1);
    } else {
      for (int Pass = 0; Pass != 4; ++Pass)
        for (int Key = 0; Key != Keys; ++Key) {
          auto V = Cache.lookup(Key);
          if (V.has_value()) {
            ASSERT_EQ(*V, Key + 1);
          }
        }
    }
  });
  EXPECT_EQ(Cache.size(), (size_t)Keys / 2);
}

TEST(BlockCacheStressTest, ClearUnderContentionIsSafe) {
  BlockCache<int, int> Cache;
  runOnThreads(Threads, [&](unsigned T) {
    for (int I = 0; I != 3000; ++I) {
      Cache.insert(I, I);
      if (T == 0 && I % 500 == 0)
        Cache.clear();
      auto V = Cache.lookup(I);
      if (V.has_value()) {
        ASSERT_EQ(*V, I);
      }
    }
  });
  // No assertion on size (clear races the inserts); the run itself — and
  // TSan on it — is the test.
  (void)Cache.stats();
}
