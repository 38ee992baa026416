//===- diff/DiffResult.h - Shared result types for trace differencing -----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Both differencing semantics (§3.2 LCS-based, §3.3 views-based) produce
/// the same shape of result: the similarity set Pi as per-entry bits, the
/// derived difference set, and *difference sequences* — contiguous runs of
/// differences that the paper reports as the unit of tool output ("each
/// representing one higher-level semantic difference").
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_DIFF_DIFFRESULT_H
#define RPRISM_DIFF_DIFFRESULT_H

#include "trace/Trace.h"

#include <bit>
#include <string>
#include <vector>

namespace rprism {

/// Cost/outcome counters for one differencing run. CompareOps is the
/// paper's speedup metric (Fig. 14b); PeakBytes and OutOfMemory model the
/// Table 1 memory column (LCS exhausts its cap on the largest benchmark).
struct DiffStats {
  uint64_t CompareOps = 0;
  double Seconds = 0;
  uint64_t PeakBytes = 0;
  bool OutOfMemory = false;
};

/// A contiguous run of differing entries, paired across the two traces.
/// Either side may be empty (pure insertion/deletion).
struct DiffSequence {
  std::vector<uint32_t> LeftEids;
  std::vector<uint32_t> RightEids;
  uint32_t LeftTid = 0; ///< Thread context the run occurred in.

  size_t size() const { return LeftEids.size() + RightEids.size(); }
};

/// A set of entry ids below size(), as a bitset of whole words: per-pair
/// similarity sets union a word at a time, and counting is a popcount.
class EntrySet {
public:
  explicit EntrySet(size_t Size = 0) : Words((Size + 63) / 64), Bits(Size) {}

  size_t size() const { return Bits; }
  bool test(uint32_t Eid) const { return Words[Eid >> 6] >> (Eid & 63) & 1; }
  void set(uint32_t Eid) { Words[Eid >> 6] |= uint64_t{1} << (Eid & 63); }

  /// Adds every member of \p Other (a set of the same size).
  void unite(const EntrySet &Other) {
    for (size_t W = 0; W != Words.size(); ++W)
      Words[W] |= Other.Words[W];
  }

  /// Number of members.
  uint64_t count() const {
    uint64_t N = 0;
    for (uint64_t Word : Words)
      N += static_cast<uint64_t>(std::popcount(Word));
    return N;
  }

  bool operator==(const EntrySet &) const = default;

private:
  std::vector<uint64_t> Words;
  size_t Bits;
};

/// Result of differencing a (left, right) trace pair.
struct DiffResult {
  const Trace *Left = nullptr;
  const Trace *Right = nullptr;

  /// Pi membership: LeftSimilar.test(eid) is true when the left entry was
  /// found similar to some right entry (and vice versa).
  EntrySet LeftSimilar;
  EntrySet RightSimilar;

  std::vector<DiffSequence> Sequences;
  DiffStats Stats;

  /// Differences per side (entries not in Pi).
  uint64_t numLeftDiffs() const {
    return LeftSimilar.size() - LeftSimilar.count();
  }
  uint64_t numRightDiffs() const {
    return RightSimilar.size() - RightSimilar.count();
  }
  uint64_t numDiffs() const { return numLeftDiffs() + numRightDiffs(); }

  /// Renders the diff sequences with full dynamic context (the "semantic
  /// diff" of contribution 3). \p MaxSequences / \p MaxEntries bound output.
  std::string render(size_t MaxSequences = 20, size_t MaxEntries = 8) const;
};

/// One-line label for a difference sequence: the dominant executing method
/// and the objects it touches ("each [sequence] representing one
/// higher-level semantic difference", §5.1 — the label names it).
std::string summarizeSequence(const Trace &Left, const Trace &Right,
                              const DiffSequence &Seq);

} // namespace rprism

#endif // RPRISM_DIFF_DIFFRESULT_H
