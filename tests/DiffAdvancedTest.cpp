//===- tests/DiffAdvancedTest.cpp - Deep views-differencing behaviors -----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Targeted tests for the differencing mechanics that carry the paper's
/// claims: anchor bridging across large one-sided gaps (§3.4's "entries
/// identified as similar from secondary views could be thousands of
/// entries away"), the modification step for same-site value differences
/// (§3.2's "identifying the new parameter as the one difference"),
/// anchor-run filtering against blind value correlation, and parameterized
/// property sweeps over generated program pairs.
///
//===----------------------------------------------------------------------===//

#include "diff/Lcs.h"
#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

using namespace rprism;

namespace {

Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings,
              RunOptions Options = RunOptions()) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog, Options);
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

//===----------------------------------------------------------------------===//
// Anchor bridging across large one-sided gaps
//===----------------------------------------------------------------------===//

TEST(GapBridging, ResyncsAcrossAGapLargerThanScanAhead) {
  // Left runs a long extra phase the right side lacks entirely; the
  // shared epilogue must still lock-step match. The gap (~3000 entries)
  // exceeds the configured ScanAhead, so only anchor jumping through the
  // epilogue objects' views can recover.
  auto MakeSource = [](bool WithPhase) {
    std::string Phase = WithPhase ? R"(
      var j = 0;
      while (j < 500) { scratch.bump(); j = j + 1; }
    )"
                                  : "";
    return std::string(R"(
      class Counter { Int v; Counter() { this.v = 0; }
        Unit bump() { this.v = this.v + 1; return unit; } }
      class Tail { Int v; Tail() { this.v = 0; }
        Unit mark(Int x) { this.v = x; return unit; } }
      main {
        var scratch = new Counter();
        var tail = new Tail();
        scratch.bump();
    )") + Phase + R"(
        var k = 0;
        while (k < 40) { tail.mark(k); k = k + 1; }
      }
    )";
  };
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(MakeSource(true), Strings);
  Trace R = traceOf(MakeSource(false), Strings);
  ASSERT_GT(L.size(), R.size() + 1500);

  ViewsDiffOptions Options;
  Options.ScanAhead = 64; // Far below the gap size.
  DiffResult Result = viewsDiff(L, R, Options);

  // The epilogue (Tail.mark events on the right) must be matched, not
  // buried in the gap. Allow a handful of boundary entries to differ.
  uint64_t RightDiffs = Result.numRightDiffs();
  EXPECT_LT(RightDiffs, 12u) << Result.render();
  // The left gap itself is a legitimate difference.
  EXPECT_GE(Result.numLeftDiffs(), 2000u);
}

TEST(GapBridging, GapAtEndIsOneSidedDifference) {
  auto MakeSource = [](int Iters) {
    return std::string(R"(
      class W { Int v; W() { this.v = 0; }
        Unit go() { this.v = this.v + 1; return unit; } }
      main {
        var w = new W();
        var i = 0;
        while (i < )") + std::to_string(Iters) + R"() { w.go(); i = i + 1; }
      }
    )";
  };
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(MakeSource(50), Strings);
  Trace R = traceOf(MakeSource(10), Strings);
  DiffResult Result = viewsDiff(L, R);
  // Right is a strict prefix-ish run; right diffs ~0, left diffs = tail.
  EXPECT_LT(Result.numRightDiffs(), 6u);
  EXPECT_GT(Result.numLeftDiffs(), 100u);
}

//===----------------------------------------------------------------------===//
// The modification step (same event site, different values)
//===----------------------------------------------------------------------===//

TEST(ModificationStep, CounterShiftBecomesPairedModifications) {
  // After the divergence point, every set on the counter differs only in
  // value. The diff must pair them one-to-one (modification sequences),
  // not misalign or explode.
  auto MakeSource = [](int Start) {
    return std::string(R"(
      class C { Int v; C(Int v) { this.v = v; }
        Unit bump() { this.v = this.v + 1; return unit; } }
      main {
        var c = new C()") + std::to_string(Start) + R"();
        var i = 0;
        while (i < 20) { c.bump(); i = i + 1; }
      }
    )";
  };
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(MakeSource(0), Strings);
  Trace R = traceOf(MakeSource(1000), Strings);
  ASSERT_EQ(L.size(), R.size());

  DiffResult Result = viewsDiff(L, R);
  // Every value-carrying entry differs, and each pairs with its
  // counterpart: left diffs == right diffs.
  EXPECT_EQ(Result.numLeftDiffs(), Result.numRightDiffs());
  for (const DiffSequence &Seq : Result.Sequences)
    EXPECT_EQ(Seq.LeftEids.size(), Seq.RightEids.size());
}

TEST(ModificationStep, ValueChangeInReturnIsNotBlurredAway) {
  // Two equal-valued returns surround a differing one; the differing pair
  // must be reported even though equal instances exist nearby (the
  // anchor-blur scenario).
  auto MakeSource = [](int Mid) {
    return std::string(R"(
      class P { Int base; P(Int base) { this.base = base; }
        Bool check(Int x) { return x < this.base; } }
      main {
        var p = new P()") + std::to_string(Mid) + R"();
        print(p.check(5));
        print(p.check(10));
        print(p.check(15));
      }
    )";
  };
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(MakeSource(12), Strings); // true, true, false.
  Trace R = traceOf(MakeSource(8), Strings);  // true, false, false.
  DiffResult Result = viewsDiff(L, R);
  // The middle check's return (true vs false) must be flagged on both
  // sides (plus the init/get entries carrying the changed base).
  bool FoundLeftRet = false;
  bool FoundRightRet = false;
  for (uint32_t Eid = 0; Eid != L.size(); ++Eid)
    if (!Result.LeftSimilar.test(Eid) && L.kind(Eid) == EventKind::Return &&
        L.Strings->text(L.Names[Eid]) == "P.check")
      FoundLeftRet = true;
  for (uint32_t Eid = 0; Eid != R.size(); ++Eid)
    if (!Result.RightSimilar.test(Eid) && R.kind(Eid) == EventKind::Return &&
        R.Strings->text(R.Names[Eid]) == "P.check")
      FoundRightRet = true;
  EXPECT_TRUE(FoundLeftRet) << Result.render();
  EXPECT_TRUE(FoundRightRet) << Result.render();
}

//===----------------------------------------------------------------------===//
// Parameterized property sweeps over generated pairs
//===----------------------------------------------------------------------===//

struct SweepParam {
  unsigned OuterIters;
  uint64_t Seed;
};

class GeneratedPairSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(GeneratedPairSweep, SelfDiffIsEmptyBothEngines) {
  GeneratorOptions Options;
  Options.OuterIters = GetParam().OuterIters;
  Options.Seed = GetParam().Seed;
  auto Strings = std::make_shared<StringInterner>();
  Trace A = traceOf(generateProgram(Options), Strings);
  Trace B = traceOf(generateProgram(Options), Strings);
  EXPECT_EQ(viewsDiff(A, B).numDiffs(), 0u);
  EXPECT_EQ(lcsDiff(A, B).numDiffs(), 0u);
}

TEST_P(GeneratedPairSweep, ViewsNeverLosesToLcsOnAccuracy) {
  // The paper's Fig. 14(a) floor: accuracy relative to LCS stays >= 99%.
  GeneratorOptions Base;
  Base.OuterIters = GetParam().OuterIters;
  Base.Seed = GetParam().Seed;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1;
  Perturbed.ReorderBlock = true;

  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(generateProgram(Base), Strings);
  Trace R = traceOf(generateProgram(Perturbed), Strings);
  double Total = static_cast<double>(L.size() + R.size());
  double LcsDiffs = static_cast<double>(lcsDiff(L, R).numDiffs());
  double ViewsDiffs = static_cast<double>(viewsDiff(L, R).numDiffs());
  double Accuracy = (Total - ViewsDiffs) / (Total - LcsDiffs);
  EXPECT_GE(Accuracy, 0.99) << "iters=" << GetParam().OuterIters
                            << " seed=" << GetParam().Seed;
}

TEST_P(GeneratedPairSweep, HirschbergAgreesWithDpOnLength) {
  GeneratorOptions Base;
  Base.OuterIters = GetParam().OuterIters;
  Base.Seed = GetParam().Seed;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 2;

  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(generateProgram(Base), Strings);
  Trace R = traceOf(generateProgram(Perturbed), Strings);
  std::vector<uint32_t> LIds(L.size());
  std::vector<uint32_t> RIds(R.size());
  for (uint32_t I = 0; I != LIds.size(); ++I)
    LIds[I] = I;
  for (uint32_t I = 0; I != RIds.size(); ++I)
    RIds[I] = I;
  EidSpan LSpan{LIds.data(), LIds.size()};
  EidSpan RSpan{RIds.data(), RIds.size()};
  LcsResult Dp = lcsMatch(L, LSpan, R, RSpan);
  LcsResult Hb = lcsMatchHirschberg(L, LSpan, R, RSpan);
  EXPECT_EQ(Dp.Matches.size(), Hb.Matches.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GeneratedPairSweep,
    ::testing::Values(SweepParam{5, 1}, SweepParam{5, 7},
                      SweepParam{12, 3}, SweepParam{12, 11},
                      SweepParam{25, 5}, SweepParam{25, 13}),
    [](const ::testing::TestParamInfo<SweepParam> &Info) {
      return "iters" + std::to_string(Info.param.OuterIters) + "_seed" +
             std::to_string(Info.param.Seed);
    });

//===----------------------------------------------------------------------===//
// Option edge cases
//===----------------------------------------------------------------------===//

TEST(ViewsDiffOptionsTest, ZeroScanAheadStillTerminates) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf("class A { Int v; A(Int v) { this.v = v; } } "
                    "main { var a = new A(1); }",
                    Strings);
  Trace R = traceOf("class B { Int v; B(Int v) { this.v = v; } } "
                    "main { var b = new B(1); }",
                    Strings);
  ViewsDiffOptions Options;
  Options.ScanAhead = 0;
  DiffResult Result = viewsDiff(L, R, Options);
  // Different classes everywhere: everything differs, nothing hangs.
  EXPECT_EQ(Result.numDiffs(), L.size() + R.size());
}

TEST(ViewsDiffOptionsTest, SimilaritySetUnionAcrossThreads) {
  // Per §3.3 the per-thread-pair Pi sets are unioned; entries of one
  // thread must never mark entries of another as similar.
  const char *Source = R"(
    class W { Int v; W(Int v) { this.v = v; }
      Unit go() { this.v = this.v * 2; return unit; } }
    main {
      var a = new W(1);
      var b = new W(2);
      spawn a.go();
      spawn b.go();
    }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Source, Strings);
  Trace R = traceOf(Source, Strings);
  DiffResult Result = viewsDiff(L, R);
  EXPECT_EQ(Result.numDiffs(), 0u);
  // All entries similar, across all three threads.
  for (uint32_t Eid = 0; Eid != L.size(); ++Eid)
    EXPECT_TRUE(Result.LeftSimilar.test(Eid));
}

TEST(SequenceSummary, NamesTheDominantMethodAndObjects) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(R"(
    class Cfg { Int lo; Cfg(Int lo) { this.lo = lo; } }
    main { var c = new Cfg(32); print(c.lo); }
  )",
                    Strings);
  Trace R = traceOf(R"(
    class Cfg { Int lo; Cfg(Int lo) { this.lo = lo; } }
    main { var c = new Cfg(1); print(c.lo); }
  )",
                    Strings);
  DiffResult Result = viewsDiff(L, R);
  ASSERT_FALSE(Result.Sequences.empty());
  std::string Summary = summarizeSequence(L, R, Result.Sequences.front());
  EXPECT_NE(Summary.find("Cfg"), std::string::npos) << Summary;
  EXPECT_NE(Summary.find("touching"), std::string::npos) << Summary;
  // And the full render embeds the summaries.
  EXPECT_NE(Result.render().find(Summary), std::string::npos);
}

TEST(SequenceSummary, MaximalSequencesHaveNoAdjacentNeighbors) {
  // After adjacency merging, two consecutive sequences of the same thread
  // must be separated by at least one matched entry on some side.
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(R"(
    class C { Int v; C(Int v) { this.v = v; }
      Unit go(Int x) { this.v = this.v + x; return unit; } }
    main { var c = new C(3); c.go(1); c.go(2); c.go(3); }
  )",
                    Strings);
  Trace R = traceOf(R"(
    class C { Int v; C(Int v) { this.v = v; }
      Unit go(Int x) { this.v = this.v + x; return unit; } }
    main { var c = new C(4); c.go(1); c.go(9); c.go(3); }
  )",
                    Strings);
  DiffResult Result = viewsDiff(L, R);
  for (size_t I = 1; I < Result.Sequences.size(); ++I) {
    const DiffSequence &Prev = Result.Sequences[I - 1];
    const DiffSequence &Cur = Result.Sequences[I];
    if (Prev.LeftTid != Cur.LeftTid)
      continue;
    bool SeparatedLeft =
        !Prev.LeftEids.empty() && !Cur.LeftEids.empty() &&
        Cur.LeftEids.front() > Prev.LeftEids.back() + 1;
    bool SeparatedRight =
        !Prev.RightEids.empty() && !Cur.RightEids.empty() &&
        Cur.RightEids.front() > Prev.RightEids.back() + 1;
    EXPECT_TRUE(SeparatedLeft || SeparatedRight)
        << "sequences " << I - 1 << " and " << I << " are adjacent\n"
        << Result.render();
  }
}

TEST(ViewsDiffOptionsTest, StatsArePopulated) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf("class A { Int v; A(Int v) { this.v = v; } } "
                    "main { var a = new A(1); }",
                    Strings);
  Trace R = traceOf("class A { Int v; A(Int v) { this.v = v; } } "
                    "main { var a = new A(2); }",
                    Strings);
  DiffResult Result = viewsDiff(L, R);
  EXPECT_GT(Result.Stats.CompareOps, 0u);
  EXPECT_GE(Result.Stats.Seconds, 0.0);
  EXPECT_GT(Result.Stats.PeakBytes, 0u);
  EXPECT_FALSE(Result.Stats.OutOfMemory);
}

} // namespace
