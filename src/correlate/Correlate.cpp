//===- correlate/Correlate.cpp --------------------------------------------===//

#include "correlate/Correlate.h"

#include "support/FlatIdTable.h"
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
  for (const View &LV : Left.family(ViewType::Method))
    if (const View *RV = Right.methodView(LV.MethodName))
      link(LV.Id, RV->Id);
}

namespace {

/// A correlation key: a class id and a 64-bit value (hash or creation
/// seq) as 32-bit words, so that a table slot takes 16 bytes.
struct ObjKey {
  uint32_t Class;
  uint32_t Lo;
  uint32_t Hi;
  bool operator==(const ObjKey &) const = default;
};

ObjKey objKey(Symbol Class, uint64_t Value) {
  return {Class.Id, static_cast<uint32_t>(Value),
          static_cast<uint32_t>(Value >> 32)};
}

struct ObjKeyHash {
  uint64_t operator()(const ObjKey &K) const {
    return hashMix(K.Class, K.Lo | uint64_t{K.Hi} << 32);
  }
};

} // namespace

void ViewCorrelation::correlateObjects(const ViewWeb &Left,
                                       const ViewWeb &Right) {
  // X_TO / X_AO is a join per family: right views keyed by (class,
  // value-hash) of their final, then first, observed representation, and
  // by (class, creation seq); a key belongs to its first holder in right
  // id order. The value key is a real pair: folding the class into the
  // 64-bit hash would let two classes alias
  // (CorrelateEdge.ValueKeyNeverLinksAcrossClasses).
  using Table = FlatIdTable<ObjKey, ObjKeyHash>;
  constexpr uint32_t Pending = Table::None - 1; // Key with no holder yet.
  Table Keys; // One allocation for both families and passes.
  auto TryLink = [this](uint32_t LeftId, uint32_t RightId) {
    // First match wins; a right view correlates with at most one left view.
    // None and Pending lie past the right web: no match.
    if (RightId >= RightToLeft.size() || LeftToRight[LeftId] >= 0 ||
        RightToLeft[RightId] >= 0)
      return false;
    link(LeftId, RightId);
    return true;
  };
  auto ByValue = [&Keys](const ObjRepr &R) {
    return R.HasRepr ? Keys.find(objKey(R.ClassName, R.ValueHash))
                     : Table::None;
  };
  auto BySeq = [](const ViewWeb &Web, const View &V) {
    const ObjRepr &First = Web.firstRepr(V);
    return objKey(First.ClassName, First.CreationSeq);
  };

  for (ViewType Type : {ViewType::TargetObject, ViewType::ActiveObject}) {
    std::span<const View> Lefts = Left.family(Type);
    std::span<const View> Rights = Right.family(Type);

    // Final-state keys enter first: on hash collisions (e.g. several
    // instances sharing the pre-constructor default state), the more
    // informative representation owns the slot.
    // A view whose first and last events share an object row has one
    // representation: its second key would repeat the first.
    Keys.reset(Rights.size());
    for (const View &RV : Rights)
      for (uint32_t Obj : {RV.LastObj, RV.FirstObj}) {
        const ObjRepr &R = Right.trace().object(Obj);
        if (R.HasRepr) {
          uint32_t &Id = Keys.slot(objKey(R.ClassName, R.ValueHash));
          if (Id == Table::None)
            Id = RV.Id;
        }
        if (RV.FirstObj == RV.LastObj)
          break;
      }

    // Pass 1: value-representation matches (the stronger signal). The
    // *final* state leads: the first observed representation is usually
    // the pre-constructor default, which collides across all instances of
    // a class and would pair swapped-creation-order objects wrongly
    // (CorrelateEdge.SwappedCreationOrderResolvedByValueReprs).
    std::vector<const View *> Unlinked;
    for (const View &LV : Lefts)
      if (!TryLink(LV.Id, ByValue(Left.lastRepr(LV))) &&
          (LV.FirstObj == LV.LastObj ||
           !TryLink(LV.Id, ByValue(Left.firstRepr(LV)))))
        Unlinked.push_back(&LV);
    if (Unlinked.empty())
      continue;

    // Pass 2: creation-sequence-number matches for the rest. Their keys
    // form the table and the right views stream past it in id order, so
    // each key still goes to its first right holder.
    Keys.reset(Unlinked.size());
    for (const View *LV : Unlinked)
      Keys.slot(BySeq(Left, *LV)) = Pending;
    for (const View &RV : Rights)
      if (ObjKey Key = BySeq(Right, RV); Keys.find(Key) == Pending)
        Keys.slot(Key) = RV.Id;
    for (const View *LV : Unlinked)
      TryLink(LV->Id, Keys.find(BySeq(Left, *LV)));
  }
}

ViewCorrelation::ViewCorrelation(const ViewWeb &Left, const ViewWeb &Right) {
  TelemetrySpan Span("correlate");
  LeftToRight.assign(Left.numViews(), -1);
  RightToLeft.assign(Right.numViews(), -1);
  correlateThreads(Left, Right);
  correlateMethods(Left, Right);
  correlateObjects(Left, Right);
  Telemetry::counterAdd("correlate.thread_pairs", ThreadPairs.size());
}
