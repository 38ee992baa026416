//===- tests/NWayDiffTest.cpp - Lane kernels & 1-vs-N variational diff ----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Two contracts under test:
///
///   1. The lane kernels (laneMatchRun, laneMismatchRun, lanesEqual) agree
///      with one-element-at-a-time reference loops, on randomized lanes at
///      unaligned starts, at every length 0..80 (across the 8-element block
///      edge), with the first difference planted at every position.
///
///   2. nwayDiff is pure amortization: per-mutant reports are byte-identical
///      to the pairwise viewsDiff and compare-op totals match exactly, at
///      any jobs count.
///
//===----------------------------------------------------------------------===//

#include "diff/NWayDiff.h"
#include "diff/ViewsDiff.h"
#include "support/SimdDispatch.h"
#include "workload/Corpus.h"
#include "workload/Mutator.h"

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

using namespace rprism;

namespace {

/// splitmix64: deterministic lane filler (no global RNG state).
uint64_t nextRand(uint64_t &State) {
  uint64_t X = (State += 0x9e3779b97f4a7c15ull);
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ull;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebull;
  return X ^ (X >> 31);
}

/// One-element-at-a-time reference loops the kernels are checked against.
size_t refMatchRun(const uint64_t *A, const uint64_t *B, size_t Max) {
  size_t K = 0;
  for (; K != Max; ++K)
    if (A[K] != B[K])
      break;
  return K;
}

size_t refMismatchRun(const uint64_t *A, const uint64_t *B, size_t Max) {
  size_t K = 0;
  for (; K != Max; ++K)
    if (A[K] == B[K])
      break;
  return K;
}

/// Lane lengths 0..MaxLen: every position relative to the kernels'
/// 8-element block edge, over several whole blocks.
constexpr size_t MaxLen = 80;
/// Backing buffers leave slack past the longest lane at every start
/// offset 0..3, equal on both sides unless a test plants otherwise, so a
/// kernel that reads past Max runs on instead of stopping.
constexpr size_t BufLen = MaxLen + 16;

} // namespace

//===----------------------------------------------------------------------===//
// Lane kernels vs the reference loops
//===----------------------------------------------------------------------===//

TEST(LaneKernels, MatchRunAgreesWithReference) {
  uint64_t Rng = 0xfeedface;
  std::vector<uint64_t> A(BufLen), B(BufLen);
  for (size_t Round = 0; Round != 50; ++Round) {
    for (size_t I = 0; I != A.size(); ++I) {
      A[I] = nextRand(Rng);
      // Mostly-equal lanes so planted prefixes of every length occur.
      B[I] = (nextRand(Rng) % 8 == 0) ? nextRand(Rng) : A[I];
    }
    for (size_t Offset = 0; Offset != 4; ++Offset)
      for (size_t Len = 0; Len <= MaxLen; ++Len) {
        const uint64_t *PA = A.data() + Offset;
        const uint64_t *PB = B.data() + Offset;
        ASSERT_EQ(laneMatchRun(PA, PB, Len), refMatchRun(PA, PB, Len))
            << "len " << Len << " off " << Offset;
      }
  }
  // Equal lanes with the first difference planted at every position.
  for (uint64_t &V : A)
    V = nextRand(Rng);
  for (size_t Offset = 0; Offset != 4; ++Offset)
    for (size_t Len = 0; Len <= MaxLen; ++Len) {
      B = A;
      ASSERT_EQ(laneMatchRun(A.data() + Offset, B.data() + Offset, Len), Len)
          << "equal, len " << Len << " off " << Offset;
      for (size_t Diff = 0; Diff < Len; ++Diff) {
        B[Offset + Diff] ^= 1;
        ASSERT_EQ(laneMatchRun(A.data() + Offset, B.data() + Offset, Len),
                  Diff)
            << "len " << Len << " off " << Offset;
        B[Offset + Diff] ^= 1;
      }
    }
}

TEST(LaneKernels, MismatchRunAgreesWithReference) {
  uint64_t Rng = 0xdeadbeef;
  std::vector<uint64_t> A(BufLen), B(BufLen);
  for (size_t Round = 0; Round != 50; ++Round) {
    for (size_t I = 0; I != A.size(); ++I) {
      A[I] = nextRand(Rng);
      // Mostly-differing lanes so unequal prefixes of every length occur.
      B[I] = (nextRand(Rng) % 8 == 0) ? A[I] : nextRand(Rng);
    }
    for (size_t Offset = 0; Offset != 4; ++Offset)
      for (size_t Len = 0; Len <= MaxLen; ++Len) {
        const uint64_t *PA = A.data() + Offset;
        const uint64_t *PB = B.data() + Offset;
        ASSERT_EQ(laneMismatchRun(PA, PB, Len), refMismatchRun(PA, PB, Len))
            << "len " << Len << " off " << Offset;
      }
  }
  // Differing lanes with the first equal pair planted at every position.
  for (size_t I = 0; I != A.size(); ++I) {
    A[I] = nextRand(Rng);
    B[I] = ~A[I];
  }
  std::vector<uint64_t> Differ = B;
  for (size_t Offset = 0; Offset != 4; ++Offset)
    for (size_t Len = 0; Len <= MaxLen; ++Len) {
      B = Differ;
      ASSERT_EQ(laneMismatchRun(A.data() + Offset, B.data() + Offset, Len),
                Len)
          << "differing, len " << Len << " off " << Offset;
      for (size_t Same = 0; Same < Len; ++Same) {
        B[Offset + Same] = A[Offset + Same];
        ASSERT_EQ(laneMismatchRun(A.data() + Offset, B.data() + Offset, Len),
                  Same)
            << "len " << Len << " off " << Offset;
        B[Offset + Same] = Differ[Offset + Same];
      }
    }
}

TEST(LaneKernels, LanesEqualAgreesWithReference) {
  uint64_t Rng = 0xabad1dea;
  std::vector<uint64_t> A(BufLen), B;
  for (uint64_t &V : A)
    V = nextRand(Rng);
  for (size_t Offset = 0; Offset != 4; ++Offset)
    for (size_t Len = 0; Len <= MaxLen; ++Len) {
      B = A;
      // Equal case, then a single flipped element at each position.
      EXPECT_TRUE(lanesEqual(A.data() + Offset, B.data() + Offset, Len));
      for (size_t Flip = 0; Flip < Len; ++Flip) {
        B[Offset + Flip] ^= 1;
        ASSERT_FALSE(lanesEqual(A.data() + Offset, B.data() + Offset, Len))
            << "len " << Len << " off " << Offset << " flip " << Flip;
        B[Offset + Flip] ^= 1;
      }
      // A difference just past the lane is outside it.
      B[Offset + Len] ^= 1;
      EXPECT_TRUE(lanesEqual(A.data() + Offset, B.data() + Offset, Len));
    }
}

TEST(LaneKernels, ReportsTheScalarTier) {
  EXPECT_STREQ(simdTierName(activeSimdTier()), "scalar");
}

//===----------------------------------------------------------------------===//
// 1-vs-N variational diff vs the pairwise path
//===----------------------------------------------------------------------===//

namespace {

/// One shared mutant set for the whole suite: generation compiles and runs
/// N+1 programs, so build it once.
const MutantSet &sharedMutantSet() {
  static MutantSet Set = [] {
    RunOptions Run, Unused;
    rhinoInputs(0, Run, Unused);
    Expected<MutantSet> E =
        generateMutantSet(rhinoBaseSource(), Run, /*Count=*/4, /*Seed=*/99);
    EXPECT_TRUE(bool(E)) << (E ? "" : E.error().render());
    return E ? std::move(*E) : MutantSet();
  }();
  return Set;
}

std::vector<const Trace *> mutantPtrs(const MutantSet &Set) {
  std::vector<const Trace *> Ptrs;
  for (const MutantTrace &M : Set.Mutants)
    Ptrs.push_back(&M.ExecTrace);
  return Ptrs;
}

} // namespace

TEST(NWayDiff, MatchesPairwiseOpsAndBytes) {
  const MutantSet &Set = sharedMutantSet();
  ASSERT_FALSE(Set.Mutants.empty());
  std::vector<const Trace *> Mutants = mutantPtrs(Set);

  NWayResult NWay = nwayDiff(Set.Base, Mutants);
  ASSERT_EQ(NWay.Mutants.size(), Mutants.size());

  uint64_t TotalOps = 0;
  for (size_t M = 0; M != Mutants.size(); ++M) {
    DiffResult Pairwise = viewsDiff(Set.Base, *Mutants[M]);
    EXPECT_EQ(NWay.Mutants[M].Result.Stats.CompareOps,
              Pairwise.Stats.CompareOps)
        << "mutant " << M;
    EXPECT_EQ(NWay.Mutants[M].Result.render(50, 12), Pairwise.render(50, 12))
        << "mutant " << M;
    TotalOps += Pairwise.Stats.CompareOps;
  }
  EXPECT_EQ(NWay.totalCompareOps(), TotalOps);
}

TEST(NWayDiff, SelfDiffAgreesWithIdenticalLanes) {
  const MutantSet &Set = sharedMutantSet();
  NWayResult R = nwayDiff(Set.Base, {&Set.Base});
  ASSERT_EQ(R.Mutants.size(), 1u);
  EXPECT_TRUE(R.Mutants[0].Agrees);
  EXPECT_TRUE(R.Mutants[0].LanesIdentical);
  EXPECT_FALSE(R.Mutants[0].FirstDivergence.has_value());
  EXPECT_EQ(R.NumAgreeing, 1u);
  EXPECT_TRUE(R.Clusters.empty());
  EXPECT_GT(R.SharedLaneBytes, 0u);
}

TEST(NWayDiff, ClusterInvariants) {
  const MutantSet &Set = sharedMutantSet();
  std::vector<const Trace *> Mutants = mutantPtrs(Set);
  NWayResult R = nwayDiff(Set.Base, Mutants);

  size_t Agreeing = 0;
  for (const NWayMutantReport &M : R.Mutants)
    Agreeing += M.Agrees;
  EXPECT_EQ(R.NumAgreeing, Agreeing);

  // Every divergent mutant is in exactly one cluster; agreeing mutants in
  // none.
  std::vector<unsigned> Membership(R.Mutants.size(), 0);
  for (const NWayCluster &C : R.Clusters) {
    EXPECT_FALSE(C.Mutants.empty());
    for (size_t M : C.Mutants) {
      ASSERT_LT(M, Membership.size());
      ++Membership[M];
      EXPECT_EQ(R.Mutants[M].Site, C.Site);
    }
  }
  for (size_t M = 0; M != R.Mutants.size(); ++M)
    EXPECT_EQ(Membership[M], R.Mutants[M].Agrees ? 0u : 1u) << "mutant " << M;
}

TEST(NWayDiff, DeterministicAcrossRepeatsAndJobs) {
  const MutantSet &Set = sharedMutantSet();
  std::vector<const Trace *> Mutants = mutantPtrs(Set);

  NWayResult First = nwayDiff(Set.Base, Mutants);
  NWayResult Second = nwayDiff(Set.Base, Mutants);
  EXPECT_EQ(First.render(), Second.render());
  EXPECT_EQ(First.totalCompareOps(), Second.totalCompareOps());

  // Forcing the parallel evaluation path on these small traces must not
  // change a byte (the jobs-determinism contract).
  ViewsDiffOptions Par;
  Par.Jobs = 3;
  Par.ParallelCutoffEntries = 0;
  NWayResult Parallel = nwayDiff(Set.Base, Mutants, Par);
  EXPECT_EQ(Parallel.render(), First.render());
  EXPECT_EQ(Parallel.totalCompareOps(), First.totalCompareOps());
}

TEST(NWayDiff, SharedBaselineLanesChangeNothingAtWebLevel) {
  const MutantSet &Set = sharedMutantSet();
  ASSERT_FALSE(Set.Mutants.empty());
  const Trace &Mut = Set.Mutants.front().ExecTrace;

  ViewWeb BaseWeb(Set.Base), MutWeb(Mut);
  ViewCorrelation X(BaseWeb, MutWeb);
  BaselineLanes Lanes(BaseWeb);
  EXPECT_GT(Lanes.bytes(), 0u);

  DiffResult Without = viewsDiff(BaseWeb, MutWeb, X);
  DiffResult With =
      viewsDiff(BaseWeb, MutWeb, X, ViewsDiffOptions(), nullptr, &Lanes);
  EXPECT_EQ(With.render(50, 12), Without.render(50, 12));
  EXPECT_EQ(With.Stats.CompareOps, Without.Stats.CompareOps);
}
