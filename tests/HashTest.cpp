//===--- HashTest.cpp - Tests for the stable hashing layer ----------------===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
// Covers support/Hash.h: the persistable StableHasher contract (exact
// digest values are part of the cache file format), avalanche64, and the
// in-process hashCombine used by the hash-table key hashers.
//
//===----------------------------------------------------------------------===//

#include "support/Hash.h"

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

using namespace mix;

namespace {

TEST(StableHasherTest, Deterministic) {
  auto Digest = [] {
    return StableHasher().u32(7).str("hello").boolean(true).u64(1ull << 40)
        .digest();
  };
  EXPECT_EQ(Digest(), Digest());
}

TEST(StableHasherTest, OrderAndWidthSensitive) {
  // Different field orders, widths, and values must all hash apart —
  // the persistent cache relies on these keys to distinguish records.
  std::set<uint64_t> Digests;
  Digests.insert(StableHasher().u32(1).u32(2).digest());
  Digests.insert(StableHasher().u32(2).u32(1).digest());
  Digests.insert(StableHasher().u64(1).u32(2).digest());
  Digests.insert(StableHasher().u8(1).u8(2).digest());
  Digests.insert(StableHasher().u16(1).u16(2).digest());
  EXPECT_EQ(Digests.size(), 5u);
}

TEST(StableHasherTest, StringsAreLengthPrefixed) {
  // "ab" + "c" must not collide with "a" + "bc": the length prefix keeps
  // field boundaries in the digest.
  EXPECT_NE(StableHasher().str("ab").str("c").digest(),
            StableHasher().str("a").str("bc").digest());
  EXPECT_NE(StableHasher().str("").digest(), StableHasher().digest());
}

TEST(StableHasherTest, SignedValues) {
  EXPECT_NE(StableHasher().i64(-1).digest(), StableHasher().i64(1).digest());
  EXPECT_EQ(StableHasher().i64(-42).digest(),
            StableHasher().i64(-42).digest());
}

TEST(StableHasherTest, GoldenDigests) {
  // Golden values pin the on-disk format: if these change, FormatVersion
  // in persist/RecordFile.h must be bumped, because every existing cache
  // key and record checksum silently invalidates.
  EXPECT_EQ(stableHash64(""), StableHasher().str("").digest());
  EXPECT_EQ(stableHash64("mix"), StableHasher().str("mix").digest());
  // Empty-input digest is the avalanched FNV-1a offset basis.
  EXPECT_EQ(StableHasher().digest(), avalanche64(0xcbf29ce484222325ull));
}

TEST(Avalanche64Test, DistinctAndDeterministic) {
  std::set<uint64_t> Out;
  for (uint64_t I = 0; I != 1000; ++I)
    Out.insert(avalanche64(I));
  EXPECT_EQ(Out.size(), 1000u); // splitmix64 finalizer is a bijection
  EXPECT_EQ(avalanche64(12345), avalanche64(12345));
  // Sequential inputs must not map to sequential outputs (the whole
  // point: hash-table bucket selection uses the low bits).
  EXPECT_NE(avalanche64(1) + 1, avalanche64(2));
}

TEST(HashCombineTest, Basics) {
  size_t A = hashCombine(0, 1);
  size_t B = hashCombine(0, 2);
  EXPECT_NE(A, B);
  EXPECT_NE(hashCombine(A, 2), hashCombine(B, 1)); // order matters
  EXPECT_EQ(hashCombine(7, 9), hashCombine(7, 9));
}

} // namespace
