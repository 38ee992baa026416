//===- bench/bench_pipeline.cpp - Fingerprint + parallel pipeline sweep ---===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Measures the two layers of the diff-pipeline optimization against the
/// seed sequential path, over a sweep of trace sizes x workload thread
/// counts (the §5.1 scaling pair, extended with spawned runner threads so
/// the per-thread-pair parallelism has work to distribute):
///
///   seed      — fingerprints stripped, jobs=1: the pre-optimization
///               pipeline (every =e compare runs the full field-by-field
///               path).
///   fp-seq    — fingerprints on, jobs=1: isolates the =e fast-path win.
///   fp-jobsN  — fingerprints on, jobs=N: adds per-pair evaluation on the
///               thread pool.
///
/// A second phase writes the traces to trace files, reloads them, and
/// diffs the loaded pair.
///
/// Every configuration must produce an identical rendered report and
/// compare-op count (checked here; the determinism contract of
/// ViewsDiffOptions::Jobs). Rows record both the requested and the
/// effective worker count — the adaptive cutoff may clamp silently, and a
/// benchmark that claims jobs=8 while running sequentially misleads.
/// Repetitions auto-scale until each row accumulates a minimum wall time,
/// so sub-millisecond configs aren't drowned by timer noise. Results go
/// to BENCH_pipeline.json: wall seconds, entries/sec, compare ops, and
/// peak RSS.
///
//===----------------------------------------------------------------------===//

#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/BenchHistory.h"
#include "support/MetricsSink.h"
#include "trace/Serialize.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "workload/Generator.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

using namespace rprism;

namespace {

/// Peak resident set size in bytes (0 where unsupported).
uint64_t peakRssBytes() {
#if defined(__unix__)
  struct rusage Usage;
  if (getrusage(RUSAGE_SELF, &Usage) == 0)
    return static_cast<uint64_t>(Usage.ru_maxrss) * 1024;
#endif
  return 0;
}

struct TracePair {
  std::shared_ptr<StringInterner> Strings;
  Trace Left;
  Trace Right;
};

TracePair makePair(unsigned OuterIters, unsigned WorkloadThreads) {
  GeneratorOptions Base;
  Base.OuterIters = OuterIters;
  Base.NumThreads = WorkloadThreads;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1; // One constant changed: a version pair.
  Perturbed.ReorderBlock = true;

  TracePair Pair;
  Pair.Strings = std::make_shared<StringInterner>();
  auto Left = compileSource(generateProgram(Base), Pair.Strings);
  auto Right = compileSource(generateProgram(Perturbed), Pair.Strings);
  if (!Left || !Right)
    std::abort();
  RunOptions Options;
  Options.TraceName = "pipeline";
  Pair.Left = runProgram(*Left, Options).ExecTrace;
  Pair.Right = runProgram(*Right, Options).ExecTrace;
  return Pair;
}

struct Measurement {
  std::string Config;
  double Seconds = 0;
  double EntriesPerSec = 0;
  uint64_t CompareOps = 0;
  uint64_t PeakRss = 0;
  /// Growth of the process RSS high-water mark during this row. The
  /// absolute peak never resets, so small later rows would otherwise
  /// inherit the peak of earlier large rows.
  uint64_t PeakRssDelta = 0;
  /// The worker count asked for (0 resolved to hardware concurrency) and
  /// the one the adaptive cutoff actually granted. Divergence is expected
  /// on small traces and single-core hosts, but it must be *visible* in
  /// every row, never silent.
  unsigned RequestedJobs = 0;
  unsigned EffectiveJobs = 0;
  size_t NumDiffs = 0;
  unsigned Reps = 0;
};

/// Auto-scaled repetition: runs \p Body until the row has accumulated
/// \p MinWallSeconds of measurement (at least \p MinReps, at most
/// \p MaxReps repetitions) and returns the best single-rep seconds. Fixed
/// rep counts under-measure sub-millisecond configs and over-measure the
/// multi-second ones.
template <typename BodyFn>
double bestOf(BodyFn &&Body, unsigned *RepsOut = nullptr,
              unsigned MinReps = 2, double MinWallSeconds = 0.025,
              unsigned MaxReps = 16) {
  double Best = 1e30;
  double Total = 0;
  unsigned Rep = 0;
  while (Rep != MaxReps) {
    Timer Clock;
    Body(Rep);
    double Seconds = Clock.seconds();
    ++Rep;
    Best = std::min(Best, Seconds);
    Total += Seconds;
    if (Rep >= MinReps && Total >= MinWallSeconds)
      break;
  }
  if (RepsOut)
    *RepsOut = Rep;
  return Best;
}

/// Best wall time for one in-memory configuration. The diff inputs are
/// copied per rep so fingerprint stripping cannot leak across configs.
Measurement measure(const std::string &Config, const TracePair &Pair,
                    bool Fingerprints, unsigned Jobs,
                    std::string *RenderOut) {
  Measurement M;
  M.Config = Config;
  uint64_t Entries = Pair.Left.size() + Pair.Right.size();
  uint64_t PeakBefore = peakRssBytes();
  M.Seconds = bestOf(
      [&](unsigned Rep) {
        Trace Left = Pair.Left;
        Trace Right = Pair.Right;
        if (!Fingerprints) {
          // The seed pipeline: no fingerprints existed, every =e compare
          // runs the full field-by-field path.
          Left.HasFingerprints = false;
          Right.HasFingerprints = false;
        }
        ViewsDiffOptions Options;
        Options.Jobs = Jobs;
        M.RequestedJobs = Jobs ? Jobs : ThreadPool::defaultConcurrency();
        M.EffectiveJobs =
            effectiveDiffJobs(Options, Left.size() + Right.size());
        DiffResult Result = viewsDiff(Left, Right, Options);
        M.CompareOps = Result.Stats.CompareOps;
        M.NumDiffs = Result.numDiffs();
        if (RenderOut && Rep == 0)
          *RenderOut = Result.render(50, 12);
      },
      &M.Reps);
  M.EntriesPerSec =
      M.Seconds > 0 ? static_cast<double>(Entries) / M.Seconds : 0;
  M.PeakRss = peakRssBytes();
  M.PeakRssDelta = M.PeakRss - PeakBefore;
  return M;
}

void appendJson(std::string &Json, unsigned OuterIters,
                unsigned WorkloadThreads, uint64_t Entries,
                double BytesPerEntry, const Measurement &M, bool First) {
  char Buf[896];
  std::snprintf(
      Buf, sizeof(Buf),
      "%s    {\"outer_iters\": %u, \"workload_threads\": %u, "
      "\"entries\": %llu, \"format\": \"memory\", "
      "\"bytes_per_entry\": %.1f, \"config\": \"%s\", "
      "\"requested_jobs\": %u, \"effective_jobs\": %u, "
      "\"jobs_diverged\": %s, \"reps\": %u, \"seconds\": %.6f, "
      "\"entries_per_sec\": %.1f, \"compare_ops\": %llu, "
      "\"num_diffs\": %zu, \"peak_rss_bytes\": %llu, "
      "\"peak_rss_delta_bytes\": %llu}",
      First ? "" : ",\n", OuterIters, WorkloadThreads,
      static_cast<unsigned long long>(Entries), BytesPerEntry,
      M.Config.c_str(), M.RequestedJobs, M.EffectiveJobs,
      M.EffectiveJobs != M.RequestedJobs ? "true" : "false", M.Reps,
      M.Seconds, M.EntriesPerSec,
      static_cast<unsigned long long>(M.CompareOps), M.NumDiffs,
      static_cast<unsigned long long>(M.PeakRss),
      static_cast<unsigned long long>(M.PeakRssDelta));
  Json += Buf;
}

/// Writes both traces to trace files, reloads them into one fresh
/// interner, and re-diffs: the report and compare-op totals must be
/// identical to the in-memory reference. Returns the JSON fragment (the
/// row's format is "one-segment", the layout writeTrace produces).
std::string checkFormatDeterminism(const TracePair &Pair,
                                   const std::string &RefRender,
                                   uint64_t RefOps, int &Exit) {
  std::string LPath = "/tmp/bench_pipeline_L_one-segment.trace";
  std::string RPath = "/tmp/bench_pipeline_R_one-segment.trace";
  bool Wrote = writeTrace(Pair.Left, LPath) && writeTrace(Pair.Right, RPath);
  bool ReportIdentical = false, OpsIdentical = false;
  if (Wrote) {
    auto Shared = std::make_shared<StringInterner>();
    Expected<Trace> L = readTrace(LPath, Shared);
    Expected<Trace> R = readTrace(RPath, Shared);
    if (L && R) {
      ViewsDiffOptions Options;
      Options.Jobs = 1;
      DiffResult Result = viewsDiff(*L, *R, Options);
      ReportIdentical = Result.render(50, 12) == RefRender;
      OpsIdentical = Result.Stats.CompareOps == RefOps;
    }
  }
  if (!ReportIdentical || !OpsIdentical) {
    std::printf("  ERROR: one-segment reload diverged from the in-memory "
                "report\n");
    Exit = 1;
  }
  std::remove(LPath.c_str());
  std::remove(RPath.c_str());
  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "    {\"format\": \"one-segment\", "
                "\"report_identical\": %s, \"compare_ops_identical\": %s}",
                ReportIdentical ? "true" : "false",
                OpsIdentical ? "true" : "false");
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  // Sweep sizes (OuterIters) x workload thread counts. `--quick` trims the
  // sweep for CI smoke runs; `--git-sha` stamps the history record (the
  // harness never shells out to git itself); `--history` overrides the
  // output path.
  bool Quick = false;
  std::string GitSha;
  std::string HistoryPath = "BENCH_pipeline.json";
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--quick") {
      Quick = true;
    } else if (Arg == "--git-sha" && I + 1 < Argc) {
      GitSha = Argv[++I];
    } else if (Arg == "--history" && I + 1 < Argc) {
      HistoryPath = Argv[++I];
    } else {
      std::fprintf(stderr,
                   "usage: bench_pipeline [--quick] [--git-sha SHA] "
                   "[--history FILE]\n");
      return 2;
    }
  }
  std::vector<unsigned> Sizes =
      Quick ? std::vector<unsigned>{50, 200}
            : std::vector<unsigned>{50, 400, 1600};
  std::vector<unsigned> WorkloadThreads =
      Quick ? std::vector<unsigned>{2} : std::vector<unsigned>{1, 4, 8};
  unsigned Hw = ThreadPool::defaultConcurrency();
  std::vector<unsigned> JobCounts{2, 4};
  if (Hw > 4)
    JobCounts.push_back(Hw);

  // The record body; the history header (schema/git_sha/corpus size) is
  // prepended once the sweep has established the corpus size.
  std::string Json = "  \"hardware_concurrency\": " + std::to_string(Hw) +
                     ",\n  \"results\": [\n";
  bool First = true;
  int Exit = 0;
  double LargestSeedSeconds = 0;
  double LargestBestSeconds = 0;
  uint64_t LargestEntries = 0;

  for (unsigned Threads : WorkloadThreads) {
    for (unsigned Size : Sizes) {
      TracePair Pair = makePair(Size, Threads);
      uint64_t Entries = Pair.Left.size() + Pair.Right.size();
      LargestEntries = std::max(LargestEntries, Entries);
      double BytesPerEntry =
          Entries ? static_cast<double>(Pair.Left.storageBytes() +
                                        Pair.Right.storageBytes()) /
                        static_cast<double>(Entries)
                  : 0;
      std::printf("== %llu entries (iters=%u, workload threads=%u) ==\n",
                  static_cast<unsigned long long>(Entries), Size, Threads);

      std::string SeedRender;
      Measurement Seed = measure("seed", Pair, /*Fingerprints=*/false,
                                 /*Jobs=*/1, &SeedRender);
      appendJson(Json, Size, Threads, Entries, BytesPerEntry, Seed, First);
      First = false;
      std::printf("  %-10s %8.2f ms  %12.0f entries/s  %10llu ops\n",
                  Seed.Config.c_str(), Seed.Seconds * 1e3,
                  Seed.EntriesPerSec,
                  static_cast<unsigned long long>(Seed.CompareOps));

      double Best = 1e30;
      std::vector<std::pair<std::string, std::pair<bool, unsigned>>> Configs;
      Configs.emplace_back("fp-seq", std::make_pair(true, 1u));
      for (unsigned Jobs : JobCounts)
        Configs.emplace_back("fp-jobs" + std::to_string(Jobs),
                             std::make_pair(true, Jobs));
      for (const auto &[Name, Cfg] : Configs) {
        std::string Render;
        Measurement M = measure(Name, Pair, Cfg.first, Cfg.second, &Render);
        appendJson(Json, Size, Threads, Entries, BytesPerEntry, M, First);
        std::printf("  %-10s %8.2f ms  %12.0f entries/s  %10llu ops"
                    "  (%.2fx)%s\n",
                    M.Config.c_str(), M.Seconds * 1e3, M.EntriesPerSec,
                    static_cast<unsigned long long>(M.CompareOps),
                    Seed.Seconds / M.Seconds,
                    M.EffectiveJobs != M.RequestedJobs
                        ? "  [adaptive cutoff ran sequential]"
                        : "");
        Best = std::min(Best, M.Seconds);
        // The determinism contract: every jobs value (and the fingerprint
        // fast path) yields the identical report and compare-op count.
        if (Render != SeedRender || M.CompareOps != Seed.CompareOps) {
          std::printf("  ERROR: '%s' diverged from the seed report\n",
                      Name.c_str());
          Exit = 1;
        }
      }
      if (Threads == WorkloadThreads.back() && Size == Sizes.back()) {
        LargestSeedSeconds = Seed.Seconds;
        LargestBestSeconds = Best;
      }
    }
  }

  // Format determinism: trace files must reload into a report
  // byte-identical to the in-memory diff, with identical compare-op totals.
  std::string FormatJson = ",\n  \"format_determinism\": [\n";
  {
    TracePair Pair = makePair(Quick ? 100 : 400, 2);
    ViewsDiffOptions RefOptions;
    RefOptions.Jobs = 1;
    DiffResult Ref = viewsDiff(Pair.Left, Pair.Right, RefOptions);
    FormatJson += checkFormatDeterminism(Pair, Ref.render(50, 12),
                                         Ref.Stats.CompareOps, Exit);
  }
  FormatJson += "\n  ],\n  \"determinism_ok\": ";
  FormatJson += Exit == 0 ? "true" : "false";

  // Trace production: how fast the VM turns a program into a finished
  // trace (the recorder's columnar-emission path). The compiled program is
  // reused across reps — the run itself is what's being timed.
  std::string TraceGenJson = ",\n  \"trace_gen\": [\n";
  double TraceGenEntriesPerSec = 0;
  {
    GeneratorOptions GenOpt;
    GenOpt.OuterIters = Sizes.back();
    GenOpt.NumThreads = WorkloadThreads.back();
    auto GenStrings = std::make_shared<StringInterner>();
    auto Prog = compileSource(generateProgram(GenOpt), GenStrings);
    if (!Prog)
      std::abort();
    RunOptions Options;
    Options.TraceName = "trace-gen";
    std::printf("== trace generation (iters=%u, workload threads=%u) ==\n",
                GenOpt.OuterIters, GenOpt.NumThreads);
    uint64_t Entries = 0, Steps = 0;
    uint64_t PeakBefore = peakRssBytes();
    unsigned Reps = 0;
    double Seconds = bestOf(
        [&](unsigned) {
          RunResult R = runProgram(*Prog, Options);
          Entries = R.ExecTrace.size();
          Steps = R.Steps;
        },
        &Reps);
    uint64_t Peak = peakRssBytes();
    TraceGenEntriesPerSec =
        Seconds > 0 ? static_cast<double>(Entries) / Seconds : 0;
    char Buf[512];
    std::snprintf(
        Buf, sizeof(Buf),
        "    {\"outer_iters\": %u, "
        "\"workload_threads\": %u, \"entries\": %llu, \"steps\": %llu, "
        "\"reps\": %u, \"seconds\": %.6f, \"entries_per_sec\": %.1f, "
        "\"peak_rss_bytes\": %llu, \"peak_rss_delta_bytes\": %llu}",
        GenOpt.OuterIters, GenOpt.NumThreads,
        static_cast<unsigned long long>(Entries),
        static_cast<unsigned long long>(Steps), Reps, Seconds,
        TraceGenEntriesPerSec, static_cast<unsigned long long>(Peak),
        static_cast<unsigned long long>(Peak - PeakBefore));
    TraceGenJson += Buf;
    std::printf("  %8.2f ms  %12.0f entries/s\n", Seconds * 1e3,
                TraceGenEntriesPerSec);
    TraceGenJson += "\n  ]";
  }

  // Telemetry verification pass. The measurements above run with telemetry
  // disabled — the recording path must cost nothing when off — so one extra
  // instrumented run + diff cross-checks the metrics registry against
  // DiffStats and exports the shared sink schema alongside the timing
  // results. makePair runs *inside* the instrumented window so the VM's
  // trace-production telemetry (vm-run spans, vm.* counters) lands in the
  // exported metrics too.
  {
    Telemetry::get().reset();
    Telemetry::get().setEnabled(true);
    uint64_t StartNanos = Telemetry::nowNanos();
    TracePair Pair = makePair(50, 2);
    ViewsDiffOptions Options;
    Options.Jobs = 2;
    DiffResult Result;
    {
      TelemetrySpan Root("bench-pipeline");
      Result = viewsDiff(Pair.Left, Pair.Right, Options);
    }

    Telemetry::get().setEnabled(false);
    TelemetrySnapshot Snap = Telemetry::get().snapshot();
    // The registry counter must equal the DiffStats total of the one
    // diff in the window.
    if (Snap.counter("diff.compare_ops") != Result.Stats.CompareOps) {
      std::printf("ERROR: telemetry compare-op counter (%llu) != "
                  "DiffStats.CompareOps (%llu)\n",
                  static_cast<unsigned long long>(
                      Snap.counter("diff.compare_ops")),
                  static_cast<unsigned long long>(Result.Stats.CompareOps));
      Exit = 1;
    }
    MetricsRunInfo Info;
    Info.Tool = "bench_pipeline";
    Info.Command = "verify-jobs2";
    Info.WallNanos = Telemetry::nowNanos() - StartNanos;
    const char *MetricsPath = "BENCH_pipeline_metrics.json";
    if (writeMetricsJson(Snap, Info, MetricsPath)) {
      std::printf("[telemetry written to %s]\n", MetricsPath);
    } else {
      std::printf("error: cannot write %s\n", MetricsPath);
      Exit = 1;
    }
  }

  Json += "\n  ]";
  Json += FormatJson;
  Json += TraceGenJson;

  // Headline numbers the regression trajectory tracks, pulled up front so
  // history consumers don't have to re-derive them from the row arrays.
  double LargestSpeedup = LargestBestSeconds > 0
                              ? LargestSeedSeconds / LargestBestSeconds
                              : 0;
  {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  ",\n  \"key_metrics\": {\"largest_speedup\": %.2f, "
                  "\"trace_gen_entries_per_sec\": %.1f, "
                  "\"determinism_ok\": %s}",
                  LargestSpeedup,
                  TraceGenEntriesPerSec, Exit == 0 ? "true" : "false");
    Json += Buf;
  }
  Json += "\n}\n";

  BenchRunInfo Run;
  Run.Bench = "pipeline";
  Run.GitSha = GitSha;
  Run.Quick = Quick;
  Run.CorpusEntries = LargestEntries;
  std::string Record = "{\n" + renderBenchHeader(Run) + Json;
  if (appendBenchRecordLine(HistoryPath, Record)) {
    std::printf("\n[history record appended to %s]\n", HistoryPath.c_str());
  } else {
    std::printf("\nerror: cannot append to %s\n", HistoryPath.c_str());
    Exit = 1;
  }
  if (LargestBestSeconds > 0)
    std::printf("largest-size speedup vs seed sequential: %.2fx\n",
                LargestSpeedup);
  return Exit;
}
