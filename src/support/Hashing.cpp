//===- support/Hashing.cpp ------------------------------------------------===//

#include "support/Hashing.h"

#include <cstring>

using namespace rprism;

uint64_t rprism::hashBytes(const void *Data, size_t Size, uint64_t Seed) {
  const auto *Bytes = static_cast<const unsigned char *>(Data);
  uint64_t H = Seed;
  for (size_t I = 0; I != Size; ++I) {
    H ^= Bytes[I];
    H *= 0x100000001b3ULL; // FNV prime.
  }
  return H;
}

namespace {

constexpr uint64_t LaneMul = 0x9fb21c651e98df25ULL;

inline uint64_t loadWord(const unsigned char *P) {
  uint64_t W;
  std::memcpy(&W, P, sizeof(W));
  return W;
}

inline uint64_t laneStep(uint64_t Lane, uint64_t Word) {
  Lane = (Lane ^ Word) * LaneMul;
  return Lane ^ (Lane >> 29);
}

} // namespace

uint64_t rprism::checksumBytes(const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  uint64_t Lanes[4] = {HashInit, HashInit ^ 0x1111111111111111ULL,
                       HashInit ^ 0x2222222222222222ULL,
                       HashInit ^ 0x3333333333333333ULL};
  size_t I = 0;
  for (; I + 32 <= Size; I += 32) {
    Lanes[0] = laneStep(Lanes[0], loadWord(P + I));
    Lanes[1] = laneStep(Lanes[1], loadWord(P + I + 8));
    Lanes[2] = laneStep(Lanes[2], loadWord(P + I + 16));
    Lanes[3] = laneStep(Lanes[3], loadWord(P + I + 24));
  }
  for (size_t L = 0; I + 8 <= Size; I += 8, ++L)
    Lanes[L] = laneStep(Lanes[L], loadWord(P + I));
  uint64_t Tail = 0;
  if (I != Size)
    std::memcpy(&Tail, P + I, Size - I);
  uint64_t H = hashMix(HashInit, Size);
  for (uint64_t Lane : Lanes)
    H = hashMix(H, Lane);
  return hashMix(H, Tail);
}
