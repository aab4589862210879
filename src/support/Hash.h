//===--- Hash.h - Shared stable and in-memory hashing -----------*- C++ -*-===//
//
// Part of the Mix reproduction of "Mixing Type Checking and Symbolic
// Execution" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// One audited hashing implementation for the whole project, in two
/// flavours with different contracts:
///
///  - StableHasher / stableHash64: 64-bit FNV-1a over an explicit
///    little-endian byte encoding. The result is part of the on-disk
///    cache contract (src/persist/): it must be identical across runs,
///    platforms, build modes, and --jobs values, so nothing
///    address-dependent (pointers, iteration order of unordered
///    containers, std::hash) may ever feed it.
///
///  - hashCombine / avalanche64: in-process hash-table mixing. These may
///    change freely between builds; they are never persisted.
///    avalanche64 is the splitmix64 finalizer — every input bit affects
///    every output bit, so taking the low bits for bucket selection is
///    safe even for clustered inputs.
///
//===----------------------------------------------------------------------===//

#ifndef MIX_SUPPORT_HASH_H
#define MIX_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace mix {

/// splitmix64 finalizer: a full-avalanche bijection on 64-bit values.
inline uint64_t avalanche64(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

/// Streaming FNV-1a over an explicit byte encoding. Every update method
/// writes a fixed little-endian layout, so the digest of a value sequence
/// is identical on every platform and in every run.
class StableHasher {
public:
  StableHasher &bytes(const void *Data, size_t N) {
    const unsigned char *P = static_cast<const unsigned char *>(Data);
    for (size_t I = 0; I != N; ++I) {
      State ^= P[I];
      State *= 0x100000001b3ULL; // FNV prime
    }
    return *this;
  }

  StableHasher &u8(uint8_t V) { return bytes(&V, 1); }
  StableHasher &u16(uint16_t V) {
    uint8_t B[2] = {(uint8_t)V, (uint8_t)(V >> 8)};
    return bytes(B, 2);
  }
  StableHasher &u32(uint32_t V) {
    uint8_t B[4] = {(uint8_t)V, (uint8_t)(V >> 8), (uint8_t)(V >> 16),
                    (uint8_t)(V >> 24)};
    return bytes(B, 4);
  }
  StableHasher &u64(uint64_t V) {
    u32((uint32_t)V);
    return u32((uint32_t)(V >> 32));
  }
  StableHasher &i64(int64_t V) { return u64((uint64_t)V); }
  StableHasher &boolean(bool V) { return u8(V ? 1 : 0); }
  /// Length-prefixed, so consecutive strings cannot alias ("ab","c" vs
  /// "a","bc").
  StableHasher &str(std::string_view S) {
    u64(S.size());
    return bytes(S.data(), S.size());
  }

  /// The digest. Finalized through avalanche64 so related inputs (short
  /// strings, small integers) still differ in their low bits.
  uint64_t digest() const { return avalanche64(State); }

private:
  uint64_t State = 0xcbf29ce484222325ULL; // FNV offset basis
};

/// One-shot stable digest of a byte string.
inline uint64_t stableHash64(std::string_view S) {
  return StableHasher().str(S).digest();
}

/// Folds \p Value into \p Seed (boost-style combine over avalanched
/// halves). In-process only — never persist the result.
inline size_t hashCombine(size_t Seed, size_t Value) {
  return (size_t)avalanche64((uint64_t)Seed ^
                             (avalanche64((uint64_t)Value) +
                              0x9e3779b97f4a7c15ULL + ((uint64_t)Seed << 6) +
                              ((uint64_t)Seed >> 2)));
}

} // namespace mix

#endif // MIX_SUPPORT_HASH_H
