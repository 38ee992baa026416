//===- support/Hashing.h - Stable 64-bit hashing utilities ---------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Stable (platform- and run-independent) 64-bit hashing. Value
/// representations (Fig. 8 of the paper) must be comparable across two
/// program versions and across serialization round trips, so all hashes in
/// RPrism are deterministic functions of the hashed bytes, never of pointer
/// identity or ASLR-dependent state.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_HASHING_H
#define RPRISM_SUPPORT_HASHING_H

#include <cstdint>
#include <string_view>

namespace rprism {

/// FNV-1a offset basis; the seed for all byte-wise hashes.
inline constexpr uint64_t HashInit = 0xcbf29ce484222325ULL;

/// Mixes a 64-bit value into a running hash using the splitmix64 finalizer.
/// Stronger than plain FNV multiplication for already-wide inputs (other
/// hashes, counters) where low-bit bias would cluster hash-table buckets.
inline uint64_t hashMix(uint64_t Seed, uint64_t Value) {
  uint64_t X = Seed ^ (Value + 0x9e3779b97f4a7c15ULL + (Seed << 6) +
                       (Seed >> 2));
  X ^= X >> 30;
  X *= 0xbf58476d1ce4e5b9ULL;
  X ^= X >> 27;
  X *= 0x94d049bb133111ebULL;
  X ^= X >> 31;
  return X;
}

/// FNV-1a over a byte range starting from \p Seed.
uint64_t hashBytes(const void *Data, size_t Size, uint64_t Seed = HashInit);

/// Integrity checksum of a byte range: every on-disk digest of the trace
/// formats (section checksums, segment tables, lane and footer digests,
/// file digests). Four independent lanes each absorb one 8-byte
/// word per 32-byte block with a multiply-xorshift step; the
/// leftover words continue the lanes, the last 0-7 bytes form one
/// zero-padded word, and the lanes, that word and the length are folded
/// with hashMix. Every lane step is a bijection of the lane for a fixed
/// word, so a change confined to one word always changes that lane. Not a
/// value hash: `Str` representations keep hashString (FNV-1a), whose values
/// are trace semantics.
uint64_t checksumBytes(const void *Data, size_t Size);

/// FNV-1a over the characters of \p Str.
inline uint64_t hashString(std::string_view Str, uint64_t Seed = HashInit) {
  return hashBytes(Str.data(), Str.size(), Seed);
}

/// Convenience variadic combiner: hashCombine(a, b, c) folds each value into
/// a fresh hash chain.
inline uint64_t hashCombine(uint64_t Value) { return hashMix(HashInit, Value); }

template <typename... Rest>
uint64_t hashCombine(uint64_t First, Rest... Values) {
  uint64_t H = HashInit;
  for (uint64_t V : {First, static_cast<uint64_t>(Values)...})
    H = hashMix(H, V);
  return H;
}

} // namespace rprism

#endif // RPRISM_SUPPORT_HASHING_H
