//===- correlate/Correlate.h - View correlation functions (§3.1) ----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Correlation functions X_nu decide whether a view in the left trace
/// semantically corresponds to a view in the right trace:
///
///   X_TH  threads: closest match on the spawning call stack of the thread
///         and its ancestors (exact ancestry-hash matches first, then a
///         similarity score over the spawn stacks; greedy assignment).
///   X_CM  methods: full qualified-signature equality.
///   X_TO / X_AO  objects: equal value representations (first or last
///         observed — representations evolve during a run) or equal
///         class-specific creation sequence numbers.
///
/// The paper stresses these are heuristics (§3.1); RPRISM additionally
/// *relaxes* method/object correlation during differencing using
/// context-sensitive anchor distances (§5) — that relaxation lives in the
/// diff module, which owns the anchor state.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_CORRELATE_CORRELATE_H
#define RPRISM_CORRELATE_CORRELATE_H

#include "views/Views.h"

#include <vector>

namespace rprism {

/// Precomputed bidirectional correlation between the views of two traces.
/// A view correlates with at most one view of the other trace.
class ViewCorrelation {
public:
  /// Builds the correlation for all view types. Both webs' traces must
  /// share one StringInterner (symbol ids compare directly).
  ViewCorrelation(const ViewWeb &Left, const ViewWeb &Right);

  /// Right view correlated with left view \p LeftId, or -1.
  int32_t rightOf(uint32_t LeftId) const { return LeftToRight[LeftId]; }

  /// Left view correlated with right view \p RightId, or -1.
  int32_t leftOf(uint32_t RightId) const { return RightToLeft[RightId]; }

  /// Correlated thread-view pairs (left id, right id), in left-tid order.
  /// These seed the views-based differencing (one evaluation per pair).
  const std::vector<std::pair<uint32_t, uint32_t>> &threadPairs() const {
    return ThreadPairs;
  }

private:
  void correlateThreads(const ViewWeb &Left, const ViewWeb &Right);
  void correlateMethods(const ViewWeb &Left, const ViewWeb &Right);
  void correlateObjects(const ViewWeb &Left, const ViewWeb &Right);
  void link(uint32_t LeftId, uint32_t RightId);

  std::vector<int32_t> LeftToRight;
  std::vector<int32_t> RightToLeft;
  std::vector<std::pair<uint32_t, uint32_t>> ThreadPairs;
};

/// Similarity in [0,1] between two thread ancestries: 1 for identical
/// hashes, otherwise the normalized LCS length of the spawn stacks (with a
/// bonus for equal entry methods). Exposed for tests.
double threadAncestrySimilarity(const Trace &LeftTrace,
                                const ThreadInfo &Left,
                                const Trace &RightTrace,
                                const ThreadInfo &Right);

} // namespace rprism

#endif // RPRISM_CORRELATE_CORRELATE_H
