//===- support/SimdDispatch.h - Lane kernels ------------------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lock-step core of the views-based differencing spends its time
/// scanning pairs of dense uint64_t fingerprint lanes. This header exposes
/// those scans as three kernels:
///
///   laneMatchRun     — length of the equal prefix of A[0..Max)/B[0..Max)
///                      (the STEP-VIEW-MATCH run-skip scan);
///   laneMismatchRun  — length of the *unequal* prefix (divergence-run
///                      scan, used by the N-way variational clustering);
///   lanesEqual       — whole-block equality (run-boundary verify: an
///                      entire view lane against a baseline lane).
///
/// The kernels are portable scalar loops. The scans stream contiguous
/// lanes and are memory-bound: SSE2 and AVX2 variants were measured at
/// parity end to end and removed (docs/PERFORMANCE.md).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_SIMDDISPATCH_H
#define RPRISM_SUPPORT_SIMDDISPATCH_H

#include <cstddef>
#include <cstdint>

namespace rprism {

/// Instruction-set tier of the lane kernels. There is one; host reports
/// (perfbench's `host` line) still name it.
enum class SimdTier : uint8_t { Scalar = 0 };

/// Printable tier name: "scalar".
inline const char *simdTierName(SimdTier) { return "scalar"; }

/// The tier the kernels run at: always Scalar.
inline SimdTier activeSimdTier() { return SimdTier::Scalar; }

/// Length of the equal prefix of A[0..Max) and B[0..Max).
size_t laneMatchRun(const uint64_t *A, const uint64_t *B, size_t Max);

/// Length of the unequal prefix: the first index K with A[K] == B[K], or
/// Max when every position differs.
size_t laneMismatchRun(const uint64_t *A, const uint64_t *B, size_t Max);

/// True when A[0..Len) == B[0..Len) elementwise.
bool lanesEqual(const uint64_t *A, const uint64_t *B, size_t Len);

} // namespace rprism

#endif // RPRISM_SUPPORT_SIMDDISPATCH_H
