//===- support/SimdDispatch.cpp -------------------------------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "support/SimdDispatch.h"

using namespace rprism;

/// Eight 64-bit XORs OR-folded per iteration; a block that shows any
/// difference drops to the element loop, which pins the exact boundary.
size_t rprism::laneMatchRun(const uint64_t *A, const uint64_t *B,
                            size_t Max) {
  size_t K = 0;
  while (K + 8 <= Max) {
    uint64_t Diff = (A[K] ^ B[K]) | (A[K + 1] ^ B[K + 1]) |
                    (A[K + 2] ^ B[K + 2]) | (A[K + 3] ^ B[K + 3]) |
                    (A[K + 4] ^ B[K + 4]) | (A[K + 5] ^ B[K + 5]) |
                    (A[K + 6] ^ B[K + 6]) | (A[K + 7] ^ B[K + 7]);
    if (Diff)
      break;
    K += 8;
  }
  while (K < Max && A[K] == B[K])
    ++K;
  return K;
}

size_t rprism::laneMismatchRun(const uint64_t *A, const uint64_t *B,
                               size_t Max) {
  size_t K = 0;
  while (K < Max && A[K] != B[K])
    ++K;
  return K;
}

bool rprism::lanesEqual(const uint64_t *A, const uint64_t *B, size_t Len) {
  return laneMatchRun(A, B, Len) == Len;
}
