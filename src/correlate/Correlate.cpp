//===- correlate/Correlate.cpp --------------------------------------------===//

#include "correlate/Correlate.h"

#include "support/Hashing.h"
#include "support/Telemetry.h"

#include <algorithm>

using namespace rprism;

double rprism::threadAncestrySimilarity(const Trace &LeftTrace,
                                        const ThreadInfo &Left,
                                        const Trace &RightTrace,
                                        const ThreadInfo &Right) {
  (void)LeftTrace;
  (void)RightTrace;
  if (Left.AncestryHash == Right.AncestryHash)
    return 1.0;

  // Small quadratic LCS over spawn-stack symbols; spawn stacks are call
  // stacks, typically a handful of frames.
  const auto &A = Left.SpawnStack;
  const auto &B = Right.SpawnStack;
  size_t N = A.size();
  size_t M = B.size();
  double Score = 0;
  if (N != 0 && M != 0) {
    std::vector<uint32_t> Prev(M + 1, 0);
    std::vector<uint32_t> Cur(M + 1, 0);
    for (size_t I = 1; I <= N; ++I) {
      for (size_t J = 1; J <= M; ++J) {
        if (A[I - 1] == B[J - 1])
          Cur[J] = Prev[J - 1] + 1;
        else
          Cur[J] = std::max(Prev[J], Cur[J - 1]);
      }
      std::swap(Prev, Cur);
    }
    Score = static_cast<double>(Prev[M]) / static_cast<double>(std::max(N, M));
  } else if (N == M) {
    Score = 1.0; // Both roots (empty spawn stacks).
  }

  // Equal entry methods are a strong signal; weight them in.
  double EntryBonus = Left.EntryMethod == Right.EntryMethod ? 1.0 : 0.0;
  return 0.25 * EntryBonus + 0.7 * Score;
}

void ViewCorrelation::link(uint32_t LeftId, uint32_t RightId) {
  LeftToRight[LeftId] = static_cast<int32_t>(RightId);
  RightToLeft[RightId] = static_cast<int32_t>(LeftId);
}

void ViewCorrelation::correlateThreads(const ViewWeb &Left,
                                       const ViewWeb &Right) {
  const Trace &LT = Left.trace();
  const Trace &RT = Right.trace();

  // Score all pairs, then greedily take the best matches. Thread counts are
  // small (the Derby benchmark has 3), so quadratic scoring is fine.
  struct Cand {
    double Score;
    uint32_t LeftTid;
    uint32_t RightTid;
  };
  std::vector<Cand> Cands;
  for (const ThreadInfo &L : LT.Threads) {
    if (!Left.threadView(L.Tid))
      continue;
    for (const ThreadInfo &R : RT.Threads) {
      if (!Right.threadView(R.Tid))
        continue;
      double Score = threadAncestrySimilarity(LT, L, RT, R);
      if (Score > 0)
        Cands.push_back({Score, L.Tid, R.Tid});
    }
  }
  std::stable_sort(Cands.begin(), Cands.end(),
                   [](const Cand &A, const Cand &B) {
                     if (A.Score != B.Score)
                       return A.Score > B.Score;
                     if (A.LeftTid != B.LeftTid)
                       return A.LeftTid < B.LeftTid;
                     return A.RightTid < B.RightTid;
                   });

  std::vector<bool> LeftTaken(LT.Threads.size(), false);
  std::vector<bool> RightTaken(RT.Threads.size(), false);
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  for (const Cand &C : Cands) {
    if (LeftTaken[C.LeftTid] || RightTaken[C.RightTid])
      continue;
    LeftTaken[C.LeftTid] = true;
    RightTaken[C.RightTid] = true;
    const View *LV = Left.threadView(C.LeftTid);
    const View *RV = Right.threadView(C.RightTid);
    link(LV->Id, RV->Id);
    Pairs.emplace_back(LV->Id, RV->Id);
  }
  // Deterministic order: by left tid.
  std::sort(Pairs.begin(), Pairs.end(),
            [&Left](const auto &A, const auto &B) {
              return Left.view(A.first).Tid < Left.view(B.first).Tid;
            });
  ThreadPairs = std::move(Pairs);
}

void ViewCorrelation::correlateMethods(const ViewWeb &Left,
                                       const ViewWeb &Right) {
  // X_CM: equality of fully qualified names (shared interner: symbol ids
  // compare directly).
  for (const View &LV : Left.views()) {
    if (LV.Type != ViewType::Method)
      continue;
    if (const View *RV = Right.methodView(LV.MethodName))
      link(LV.Id, RV->Id);
  }
}

void ViewCorrelation::correlateObjects(const ViewWeb &Left,
                                       const ViewWeb &Right, ViewType Type) {
  // Index right object views by (class, value-hash) — both first and last
  // observed representations — and by (class, creation seq). The value
  // key is a real pair: folding the class into the 64-bit hash would let
  // two classes alias (CorrelateEdge.ValueKeyNeverLinksAcrossClasses).
  using HashKey = std::pair<uint32_t, uint64_t>;
  struct HashKeyHash {
    size_t operator()(const HashKey &K) const {
      return hashCombine(K.first, K.second);
    }
  };
  auto ReprKey = [](const ObjRepr &R) {
    return HashKey(R.ClassName.Id, R.ValueHash);
  };
  auto SeqKey = [](Symbol Class, uint32_t Seq) {
    return (static_cast<uint64_t>(Class.Id) << 32) | Seq;
  };

  std::unordered_map<HashKey, uint32_t, HashKeyHash> ByValueHash;
  std::unordered_map<uint64_t, uint32_t> BySeq;
  for (const View &RV : Right.views()) {
    if (RV.Type != Type)
      continue;
    // Final-state keys enter first: on hash collisions (e.g. several
    // instances sharing the pre-constructor default state), the more
    // informative representation owns the slot.
    if (RV.LastRepr.HasRepr)
      ByValueHash.try_emplace(ReprKey(RV.LastRepr), RV.Id);
    if (RV.FirstRepr.HasRepr)
      ByValueHash.try_emplace(ReprKey(RV.FirstRepr), RV.Id);
    BySeq.try_emplace(SeqKey(RV.FirstRepr.ClassName, RV.FirstRepr.CreationSeq),
                      RV.Id);
  }

  auto TryLink = [this](uint32_t LeftId, uint32_t RightId) {
    // First match wins; a right view correlates with at most one left view.
    if (LeftToRight[LeftId] >= 0 || RightToLeft[RightId] >= 0)
      return false;
    link(LeftId, RightId);
    return true;
  };

  // Pass 1: value-representation matches (the stronger signal). The
  // *final* state leads: the first observed representation is usually the
  // pre-constructor default, which collides across all instances of a
  // class and would pair swapped-creation-order objects wrongly
  // (CorrelateEdge.SwappedCreationOrderResolvedByValueReprs).
  for (const View &LV : Left.views()) {
    if (LV.Type != Type)
      continue;
    if (LV.LastRepr.HasRepr) {
      auto It = ByValueHash.find(ReprKey(LV.LastRepr));
      if (It != ByValueHash.end() && TryLink(LV.Id, It->second))
        continue;
    }
    if (LV.FirstRepr.HasRepr) {
      auto It = ByValueHash.find(ReprKey(LV.FirstRepr));
      if (It != ByValueHash.end())
        TryLink(LV.Id, It->second);
    }
  }
  // Pass 2: creation-sequence-number matches for the rest.
  for (const View &LV : Left.views()) {
    if (LV.Type != Type || LeftToRight[LV.Id] >= 0)
      continue;
    auto It = BySeq.find(
        SeqKey(LV.FirstRepr.ClassName, LV.FirstRepr.CreationSeq));
    if (It != BySeq.end())
      TryLink(LV.Id, It->second);
  }
}

ViewCorrelation::ViewCorrelation(const ViewWeb &Left, const ViewWeb &Right) {
  TelemetrySpan Span("correlate");
  LeftToRight.assign(Left.numViews(), -1);
  RightToLeft.assign(Right.numViews(), -1);
  correlateThreads(Left, Right);
  correlateMethods(Left, Right);
  correlateObjects(Left, Right, ViewType::TargetObject);
  correlateObjects(Left, Right, ViewType::ActiveObject);
  Telemetry::counterAdd("correlate.thread_pairs", ThreadPairs.size());
}
