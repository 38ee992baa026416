//===- tests/AnalysisTest.cpp - Regression cause analysis tests -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "analysis/HtmlReport.h"
#include "analysis/Regression.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Telemetry.h"
#include "workload/Corpus.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

using namespace rprism;

namespace {

/// Four-run setup over two sources and two integer inputs.
struct FourRuns {
  std::shared_ptr<StringInterner> Strings;
  RunResult OrigOk, OrigRegr, NewOk, NewRegr;

  RegressionInputs inputs() const {
    return {&OrigOk.ExecTrace, &OrigRegr.ExecTrace, &NewOk.ExecTrace,
            &NewRegr.ExecTrace};
  }
};

FourRuns runSetup(const std::string &OrigSource, const std::string &NewSource,
               int64_t RegrInput, int64_t OkInput) {
  FourRuns S;
  S.Strings = std::make_shared<StringInterner>();
  auto Orig = compileSource(OrigSource, S.Strings);
  auto New = compileSource(NewSource, S.Strings);
  EXPECT_TRUE(bool(Orig)) << (Orig ? "" : Orig.error().render());
  EXPECT_TRUE(bool(New)) << (New ? "" : New.error().render());
  auto Run = [](const CompiledProgram &Prog, int64_t Input) {
    RunOptions Options;
    Options.IntInputs = {Input};
    return runProgram(Prog, Options);
  };
  S.OrigOk = Run(*Orig, OkInput);
  S.OrigRegr = Run(*Orig, RegrInput);
  S.NewOk = Run(*New, OkInput);
  S.NewRegr = Run(*New, RegrInput);
  return S;
}

/// A version pair with one regression (threshold typo fires only for
/// inputs > 40) and one benign change (extra bookkeeping on every run).
const char *OrigProgram = R"(
  class Meter {
    Int total;
    Int peak;
    Meter() { this.total = 0; this.peak = 0; }
    Unit feed(Int v) {
      this.total = this.total + v;
      if (v > 40) {
        this.peak = this.peak + 1;
      }
      return unit;
    }
  }
  main {
    var m = new Meter();
    m.feed(inputInt(0));
    m.feed(10);
    print(m.total);
    print(m.peak);
  }
)";

const char *NewProgram = R"(
  class Audit {
    Int calls;
    Audit() { this.calls = 0; }
    Unit tick() { this.calls = this.calls + 1; return unit; }
  }
  class Meter {
    Int total;
    Int peak;
    Audit audit;
    Meter() { this.total = 0; this.peak = 0; this.audit = new Audit(); }
    Unit feed(Int v) {
      this.audit.tick();
      this.total = this.total + v;
      if (v > 60) {
        this.peak = this.peak + 1;
      }
      return unit;
    }
  }
  main {
    var m = new Meter();
    m.feed(inputInt(0));
    m.feed(10);
    print(m.total);
    print(m.peak);
  }
)";

//===----------------------------------------------------------------------===//
// The §4 set algebra
//===----------------------------------------------------------------------===//

TEST(Analysis, CandidateSetIsolatesTheCause) {
  // Input 50 crosses the old threshold (40) but not the new (60): peak
  // regresses. Input 20 crosses neither: ok run.
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  ASSERT_NE(S.OrigRegr.Output, S.NewRegr.Output);
  ASSERT_EQ(S.OrigOk.Output, S.NewOk.Output);

  RegressionReport Report = analyzeRegression(S.inputs());
  EXPECT_GT(Report.sizeA, 0u);
  EXPECT_GT(Report.sizeB, 0u); // The Audit churn shows up as expected.
  EXPECT_GT(Report.sizeD, 0u);
  EXPECT_LT(Report.sizeD, Report.sizeA);
  ASSERT_FALSE(Report.RegressionSequences.empty());

  // No reported sequence may consist of Audit-only noise (that is set B's
  // job to remove).
  for (uint32_t Index : Report.RegressionSequences) {
    const DiffSequence &Seq = Report.A.Sequences[Index];
    bool OnlyAudit = true;
    auto Check = [&](const Trace &T, uint32_t Eid) {
      const std::string &Method = T.Strings->text(T.Methods[Eid]);
      if (Method.find("Audit") == std::string::npos &&
          Method.find("<init>") == std::string::npos)
        OnlyAudit = false;
    };
    for (uint32_t Eid : Seq.LeftEids)
      Check(*Report.A.Left, Eid);
    for (uint32_t Eid : Seq.RightEids)
      Check(*Report.A.Right, Eid);
    EXPECT_FALSE(OnlyAudit) << Report.render();
  }
}

TEST(Analysis, IdenticalVersionsYieldEmptyCandidates) {
  FourRuns S = runSetup(OrigProgram, OrigProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());
  EXPECT_EQ(Report.sizeA, 0u);
  EXPECT_EQ(Report.sizeD, 0u);
  EXPECT_TRUE(Report.RegressionSequences.empty());
}

TEST(Analysis, SetSizesAreConsistent) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());
  EXPECT_EQ(Report.sizeA, Report.A.numDiffs());
  EXPECT_EQ(Report.sizeB, Report.B.numDiffs());
  EXPECT_EQ(Report.sizeC, Report.C.numDiffs());
  uint64_t CountedD = 0;
  for (bool Flag : Report.DLeft)
    CountedD += Flag;
  for (bool Flag : Report.DRight)
    CountedD += Flag;
  EXPECT_EQ(Report.sizeD, CountedD);
  // Every D entry is an A difference.
  for (uint32_t Eid = 0; Eid != Report.DLeft.size(); ++Eid)
    if (Report.DLeft[Eid]) {
      EXPECT_FALSE(Report.A.LeftSimilar.test(Eid));
    }
  for (uint32_t Eid = 0; Eid != Report.DRight.size(); ++Eid)
    if (Report.DRight[Eid]) {
      EXPECT_FALSE(Report.A.RightSimilar.test(Eid));
    }
}

TEST(Analysis, RegressionSequencesExactlyCoverD) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());
  std::vector<bool> InReported(Report.A.Sequences.size(), false);
  for (uint32_t Index : Report.RegressionSequences)
    InReported[Index] = true;
  for (uint32_t I = 0; I != Report.A.Sequences.size(); ++I) {
    const DiffSequence &Seq = Report.A.Sequences[I];
    bool HasD = false;
    for (uint32_t Eid : Seq.LeftEids)
      HasD = HasD || Report.DLeft[Eid];
    for (uint32_t Eid : Seq.RightEids)
      HasD = HasD || Report.DRight[Eid];
    EXPECT_EQ(HasD, InReported[I]) << "sequence " << I;
  }
}

TEST(Analysis, ThreeDiffsBuildFourWebsAndMatchStandaloneDiffs) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  Telemetry::get().reset();
  Telemetry::get().setEnabled(true);
  RegressionReport Report = analyzeRegression(S.inputs());
  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();

  // One web per trace: NewRegr's serves A and C, NewOk's B and C.
  uint64_t WebBuilds = 0;
  for (const SpanStat &Span : Snap.Spans)
    if (Span.name() == "web-build")
      WebBuilds += Span.Count;
  EXPECT_EQ(WebBuilds, 4u);

  // Sharing webs changes nothing: each diff is the standalone viewsDiff.
  auto Standalone = [](const RunResult &L, const RunResult &R) {
    return viewsDiff(L.ExecTrace, R.ExecTrace);
  };
  const DiffResult Expected[3] = {Standalone(S.OrigRegr, S.NewRegr),
                                  Standalone(S.OrigOk, S.NewOk),
                                  Standalone(S.NewOk, S.NewRegr)};
  const DiffResult *Got[3] = {&Report.A, &Report.B, &Report.C};
  uint64_t Ops = 0;
  for (int I = 0; I != 3; ++I) {
    EXPECT_EQ(Got[I]->render(50, 12), Expected[I].render(50, 12)) << I;
    EXPECT_EQ(Got[I]->Stats.CompareOps, Expected[I].Stats.CompareOps) << I;
    Ops += Expected[I].Stats.CompareOps;
  }
  EXPECT_EQ(Report.Stats.CompareOps, Ops);
}

TEST(Analysis, LcsEngineAgreesOnTheCause) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionOptions Options;
  Options.Engine = DiffEngineKind::Lcs;
  RegressionReport Report = analyzeRegression(S.inputs(), Options);
  EXPECT_FALSE(Report.OutOfMemory);
  EXPECT_GT(Report.sizeD, 0u);
  EXPECT_FALSE(Report.RegressionSequences.empty());
}

TEST(Analysis, OutOfMemoryPropagates) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionOptions Options;
  Options.Engine = DiffEngineKind::Lcs;
  Options.Lcs.MemCapBytes = 16; // Nothing fits.
  RegressionReport Report = analyzeRegression(S.inputs(), Options);
  EXPECT_TRUE(Report.OutOfMemory);
  EXPECT_EQ(Report.sizeD, 0u);
  EXPECT_TRUE(Report.RegressionSequences.empty());
  EXPECT_NE(Report.render().find("out of memory"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The code-removal variant (§4.1)
//===----------------------------------------------------------------------===//

TEST(Analysis, RemovalVariantKeepsOrigSideDifferences) {
  // The new version *deletes* the peak accounting entirely: every
  // regression-related difference lives on the original side.
  const char *Removed = R"(
    class Meter {
      Int total;
      Int peak;
      Meter() { this.total = 0; this.peak = 0; }
      Unit feed(Int v) {
        this.total = this.total + v;
        return unit;
      }
    }
    main {
      var m = new Meter();
      m.feed(inputInt(0));
      m.feed(10);
      print(m.total);
      print(m.peak);
    }
  )";
  FourRuns S = runSetup(OrigProgram, Removed, 50, 20);
  ASSERT_NE(S.OrigRegr.Output, S.NewRegr.Output);

  RegressionOptions Intersect;
  RegressionReport WithC = analyzeRegression(S.inputs(), Intersect);

  RegressionOptions Minus;
  Minus.CodeRemoval = true;
  RegressionReport WithoutC = analyzeRegression(S.inputs(), Minus);

  // The -C variant must retain orig-side (deleted-code) differences.
  uint64_t OrigSideWith = 0;
  uint64_t OrigSideWithout = 0;
  for (bool Flag : WithC.DLeft)
    OrigSideWith += Flag;
  for (bool Flag : WithoutC.DLeft)
    OrigSideWithout += Flag;
  EXPECT_EQ(OrigSideWith, 0u);
  EXPECT_GT(OrigSideWithout, 0u);
}

//===----------------------------------------------------------------------===//
// Scoring
//===----------------------------------------------------------------------===//

TEST(Scoring, ClassifiesCauseEffectAndFalsePositives) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());

  GroundTruthChange Cause;
  Cause.Description = "threshold 40 -> 60";
  Cause.RegressionRelated = true;
  Cause.Methods = {"Meter.feed"};

  GroundTruthChange Benign;
  Benign.Description = "audit bookkeeping";
  Benign.Methods = {"Audit.tick"};

  RegressionScore Score = scoreReport(Report, {Cause, Benign});
  EXPECT_EQ(Score.ReportedSequences, Report.RegressionSequences.size());
  EXPECT_GT(Score.TruePositives, 0u);
  EXPECT_EQ(Score.FalseNegatives, 0u);
  EXPECT_EQ(Score.regressionRelated(),
            Score.TruePositives + Score.EffectRelated);
}

TEST(Scoring, UncoveredCauseIsAFalseNegative) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());

  GroundTruthChange Phantom;
  Phantom.Description = "a change nothing in the trace touches";
  Phantom.RegressionRelated = true;
  Phantom.Methods = {"Nonexistent.method"};
  RegressionScore Score = scoreReport(Report, {Phantom});
  EXPECT_EQ(Score.FalseNegatives, 1u);
  // All reported sequences count as false positives against this truth.
  EXPECT_EQ(Score.FalsePositives, Score.ReportedSequences);
}

TEST(Scoring, ProvenanceNodeIdsMatchEntries) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());
  ASSERT_FALSE(Report.RegressionSequences.empty());

  // Build a ground-truth change from the provenance ids actually present
  // in the first reported sequence; scoring must then find a cause match.
  GroundTruthChange ByNode;
  ByNode.Description = "by provenance";
  ByNode.RegressionRelated = true;
  const DiffSequence &Seq =
      Report.A.Sequences[Report.RegressionSequences.front()];
  for (uint32_t Eid : Seq.RightEids)
    ByNode.NewNodes.insert(Report.A.Right->Provs[Eid]);
  for (uint32_t Eid : Seq.LeftEids)
    ByNode.OrigNodes.insert(Report.A.Left->Provs[Eid]);
  RegressionScore Score = scoreReport(Report, {ByNode});
  EXPECT_GT(Score.TruePositives, 0u);
}

//===----------------------------------------------------------------------===//
// Report rendering
//===----------------------------------------------------------------------===//

TEST(HtmlReport, DiffPageContainsSequencesAndEscapes) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  DiffResult Diff = viewsDiff(S.OrigRegr.ExecTrace, S.NewRegr.ExecTrace);
  HtmlReportOptions Options;
  Options.Title = "a <title> & more";
  std::string Html = renderHtmlDiff(Diff, Options);
  EXPECT_NE(Html.find("<!DOCTYPE html>"), std::string::npos);
  // The title is escaped.
  EXPECT_NE(Html.find("a &lt;title&gt; &amp; more"), std::string::npos);
  EXPECT_EQ(Html.find("<title> & more</h1>"), std::string::npos);
  EXPECT_NE(Html.find("semantic differences"), std::string::npos);
  EXPECT_NE(Html.find("class=\"old\""), std::string::npos);
  EXPECT_NE(Html.find("class=\"new\""), std::string::npos);
}

TEST(HtmlReport, AnalysisPageMarksDEntries) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());
  std::string Html = renderHtmlReport(Report);
  EXPECT_NE(Html.find("|A|="), std::string::npos);
  EXPECT_NE(Html.find("class=\"dmark\""), std::string::npos);
  EXPECT_NE(Html.find("regression sequence"), std::string::npos);
}

TEST(HtmlReport, WriteFileRoundTrips) {
  std::string Path = "/tmp/rprism_html_test.html";
  ASSERT_TRUE(writeHtmlFile("<html>x</html>", Path));
  std::ifstream In(Path);
  std::string Content((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(Content, "<html>x</html>");
  std::remove(Path.c_str());
  EXPECT_FALSE(writeHtmlFile("x", "/nonexistent/dir/file.html"));
}

TEST(Analysis, RenderShowsSetsAndMarksDEntries) {
  FourRuns S = runSetup(OrigProgram, NewProgram, 50, 20);
  RegressionReport Report = analyzeRegression(S.inputs());
  std::string Text = Report.render();
  EXPECT_NE(Text.find("|A|="), std::string::npos);
  EXPECT_NE(Text.find("|D|="), std::string::npos);
  EXPECT_NE(Text.find("[D]"), std::string::npos);
  EXPECT_NE(Text.find("regression sequence"), std::string::npos);
}

} // namespace
