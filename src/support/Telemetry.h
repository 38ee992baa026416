//===- support/Telemetry.h - Pipeline metrics registry and span tracer ----===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A process-wide telemetry layer for the trace-analysis pipeline: the
/// paper's entire evaluation (Tables 1-2, Fig. 14) is built from internal
/// algorithm metrics — compare-op counts, difference-sequence counts, set
/// sizes, peak memory — and this registry gives them one first-class export
/// path instead of ad-hoc scraping from scattered Timer/DiffStats/
/// MemoryAccountant instances.
///
/// Three metric kinds plus spans:
///
///   counters    — monotonically summed uint64 values. Everything recorded
///                 as a counter is *deterministic*: a pipeline run records
///                 identical counter values for any `--jobs` setting (the
///                 determinism contract of the parallel diff pipeline).
///   gauges      — doubles merged by sum or max. Timing- and scheduling-
///                 class values (pool queue wait, worker utilization,
///                 memory peaks) live here; they may vary across runs and
///                 worker counts.
///   histograms  — bucketed distributions reusing the Histogram class
///                 (the Fig. 14 presentation type); bucket counts merge by
///                 addition and are deterministic like counters.
///   spans       — nested, per-thread RAII stage timers (TelemetrySpan).
///                 A span's *path* is the '/'-joined stack of enclosing
///                 span names ("diff/views-diff/web-build/thread"); tasks
///                 submitted to a ThreadPool inherit the submitter's path,
///                 so the stage taxonomy is identical for every jobs value.
///
/// Recording is lock-free on the hot path: each thread appends to its own
/// record (registered once per thread under a mutex) and snapshot() merges
/// all records deterministically — counters and histogram buckets by sum,
/// gauges by their declared rule, spans keyed by path. When telemetry is
/// disabled (the default) every entry point is a single relaxed atomic
/// load and no allocation ever happens.
///
/// Snapshots must be taken while no instrumented work is in flight (after
/// pool waits/destruction); recording threads do not lock.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_TELEMETRY_H
#define RPRISM_SUPPORT_TELEMETRY_H

#include "support/Histogram.h"

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace rprism {

/// Aggregated timings of one span path across all threads.
struct SpanStat {
  std::string Path;      ///< Full '/'-joined stage path.
  uint64_t Count = 0;    ///< Spans opened with this path.
  uint64_t TotalNanos = 0; ///< Inclusive wall time (children included).
  uint64_t SelfNanos = 0;  ///< Total minus time spent in same-thread children.

  /// Last path component (the stage name).
  std::string name() const;
  /// Path of the enclosing span ("" for a root span).
  std::string parent() const;
};

/// A merged, deterministic view of everything recorded since the last
/// reset(). Maps are ordered so iteration (and serialization) is stable.
struct TelemetrySnapshot {
  std::vector<SpanStat> Spans; ///< Sorted by path.
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
  std::map<std::string, Histogram> Histograms;

  const SpanStat *findSpan(const std::string &Path) const;
  uint64_t counter(const std::string &Name) const;

  /// Counter \p Counter per second of wall time in the spans named
  /// \p Stage (at any path, summed); 0 when either is zero. write.bytes over `write` and load.bytes_verified
  /// over `load` are the trace I/O layers' bytes/s.
  double throughput(const std::string &Counter,
                    const std::string &Stage) const;

  /// Trace-production throughput: vm.entries_emitted divided by the total
  /// wall time of the vm-run span(s), in entries per second. 0 when the
  /// run recorded no entries or no vm-run span.
  double traceProductionRate() const;
  bool empty() const {
    return Spans.empty() && Counters.empty() && Gauges.empty() &&
           Histograms.empty();
  }
};

namespace detail {
struct ThreadRecord;
} // namespace detail

/// The process-wide registry. All recording entry points are static and
/// no-ops (one relaxed load) while disabled.
class Telemetry {
public:
  static Telemetry &get();

  /// Turns recording on/off. Enabling does not clear prior data; call
  /// reset() for a fresh window.
  void setEnabled(bool Enabled) {
    EnabledFlag.store(Enabled, std::memory_order_relaxed);
  }
  static bool enabled() {
    return get().EnabledFlag.load(std::memory_order_relaxed);
  }

  /// Clears all recorded data (thread records stay registered; their
  /// contents are dropped). Only call while no instrumented work runs.
  void reset();

  /// Merges every thread's record into one deterministic snapshot.
  TelemetrySnapshot snapshot() const;

  /// Number of per-thread records ever registered (test hook for the
  /// disabled-mode zero-allocation contract).
  size_t numThreadRecords() const;

  // -- Recording (static so call sites stay one-liners) -------------------
  static void counterAdd(const char *Name, uint64_t Delta = 1);
  /// Gauge merged by max across threads and calls (peaks, ratios).
  static void gaugeMax(const char *Name, double Value);
  /// Gauge merged by sum (accumulated nanoseconds, task counts).
  static void gaugeSum(const char *Name, double Value);
  /// Adds \p Value to the named histogram (power-of-two buckets).
  static void observe(const char *Name, double Value);

  /// Monotonic nanoseconds (steady clock), for span/pool bookkeeping.
  static uint64_t nowNanos();

  /// Full path of the calling thread's innermost open span, including any
  /// inherited ThreadPool task prefix; "" when disabled or outside spans.
  static std::string currentPath();

private:
  friend class TelemetrySpan;
  friend class TelemetryTaskScope;

  Telemetry() = default;

  /// The calling thread's record, created and registered on first use.
  static detail::ThreadRecord &threadRecord();

  std::atomic<bool> EnabledFlag{false};
  mutable std::mutex Mutex;
  std::vector<std::unique_ptr<detail::ThreadRecord>> Records;
};

/// RAII stage timer. Opening nests under the thread's current span (or the
/// inherited pool-task path); closing records count/total/self time into
/// the thread's buffer. Inactive (and allocation-free) when telemetry is
/// disabled at construction time.
///
/// Every span site also doubles as a timeline event source: when the
/// TraceEventRecorder is armed at construction, the span emits a
/// begin/end pair onto the calling thread's event ring — independently
/// of whether aggregate telemetry is enabled, so `--trace-out` works
/// without `--metrics-out`.
class TelemetrySpan {
public:
  explicit TelemetrySpan(const char *Name);
  ~TelemetrySpan();

  TelemetrySpan(const TelemetrySpan &) = delete;
  TelemetrySpan &operator=(const TelemetrySpan &) = delete;

private:
  friend class Telemetry;

  std::string Path;          ///< Full path; empty when inactive.
  TelemetrySpan *Parent = nullptr;
  /// Borrowed literal for the timeline end event; nullptr when the
  /// recorder was disarmed at construction.
  const char *EventName = nullptr;
  uint64_t StartNanos = 0;
  uint64_t ChildNanos = 0;   ///< Accumulated by directly nested spans.
  bool Active = false;
};

/// Scoped inherited-path override for ThreadPool workers: while alive, new
/// root spans on this thread nest under \p Path (the submitter's span path
/// at submit time), keeping the stage taxonomy jobs-invariant.
class TelemetryTaskScope {
public:
  explicit TelemetryTaskScope(const std::string &Path);
  ~TelemetryTaskScope();

  TelemetryTaskScope(const TelemetryTaskScope &) = delete;
  TelemetryTaskScope &operator=(const TelemetryTaskScope &) = delete;

private:
  std::string SavedPath;
  bool Active = false;
};

} // namespace rprism

#endif // RPRISM_SUPPORT_TELEMETRY_H
