//===- support/Telemetry.cpp ----------------------------------------------===//

#include "support/Telemetry.h"

#include "support/TraceEventRecorder.h"

#include <algorithm>
#include <chrono>
#include <unordered_map>

using namespace rprism;

namespace rprism {
namespace detail {

/// Per-path span aggregate within one thread's record.
struct SpanAgg {
  uint64_t Count = 0;
  uint64_t TotalNanos = 0;
  uint64_t SelfNanos = 0;
};

/// One thread's private buffer. Only the owning thread writes; snapshot()
/// reads after instrumented work has quiesced.
struct ThreadRecord {
  std::unordered_map<std::string, SpanAgg> Spans;
  std::unordered_map<std::string, uint64_t> Counters;
  std::unordered_map<std::string, double> MaxGauges;
  std::unordered_map<std::string, double> SumGauges;
  std::unordered_map<std::string, Histogram> Histograms;

  void clear() {
    Spans.clear();
    Counters.clear();
    MaxGauges.clear();
    SumGauges.clear();
    Histograms.clear();
  }
};

} // namespace detail
} // namespace rprism

namespace {

// Thread-local recording state. The record pointer is registered with (and
// owned by) the singleton, so it stays valid for the thread's lifetime even
// across reset() calls; the span pointer and task path realize the
// per-thread span stack.
thread_local detail::ThreadRecord *TLRecord = nullptr;
thread_local TelemetrySpan *TLCurrentSpan = nullptr;
thread_local std::string TLTaskPath;

} // namespace

std::string SpanStat::name() const {
  size_t Slash = Path.rfind('/');
  return Slash == std::string::npos ? Path : Path.substr(Slash + 1);
}

std::string SpanStat::parent() const {
  size_t Slash = Path.rfind('/');
  return Slash == std::string::npos ? std::string() : Path.substr(0, Slash);
}

const SpanStat *TelemetrySnapshot::findSpan(const std::string &Path) const {
  for (const SpanStat &S : Spans)
    if (S.Path == Path)
      return &S;
  return nullptr;
}

uint64_t TelemetrySnapshot::counter(const std::string &Name) const {
  auto It = Counters.find(Name);
  return It == Counters.end() ? 0 : It->second;
}

double TelemetrySnapshot::throughput(const std::string &Counter,
                                     const std::string &Stage) const {
  uint64_t Amount = counter(Counter);
  // A stage may nest under any path; sum every occurrence.
  uint64_t Nanos = 0;
  for (const SpanStat &S : Spans)
    if (S.name() == Stage)
      Nanos += S.TotalNanos;
  if (Amount == 0 || Nanos == 0)
    return 0;
  return static_cast<double>(Amount) * 1e9 / static_cast<double>(Nanos);
}

double TelemetrySnapshot::traceProductionRate() const {
  return throughput("vm.entries_emitted", "vm-run");
}

Telemetry &Telemetry::get() {
  static Telemetry Instance;
  return Instance;
}

uint64_t Telemetry::nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

detail::ThreadRecord &Telemetry::threadRecord() {
  if (TLRecord)
    return *TLRecord;
  Telemetry &T = get();
  auto Record = std::make_unique<detail::ThreadRecord>();
  TLRecord = Record.get();
  std::lock_guard<std::mutex> Lock(T.Mutex);
  T.Records.push_back(std::move(Record));
  return *TLRecord;
}

void Telemetry::reset() {
  std::lock_guard<std::mutex> Lock(Mutex);
  for (auto &Record : Records)
    Record->clear();
}

size_t Telemetry::numThreadRecords() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Records.size();
}

TelemetrySnapshot Telemetry::snapshot() const {
  TelemetrySnapshot Snap;
  std::map<std::string, detail::SpanAgg> MergedSpans;
  std::lock_guard<std::mutex> Lock(Mutex);
  for (const auto &Record : Records) {
    for (const auto &[Path, Agg] : Record->Spans) {
      detail::SpanAgg &M = MergedSpans[Path];
      M.Count += Agg.Count;
      M.TotalNanos += Agg.TotalNanos;
      M.SelfNanos += Agg.SelfNanos;
    }
    for (const auto &[Name, Value] : Record->Counters)
      Snap.Counters[Name] += Value;
    for (const auto &[Name, Value] : Record->SumGauges)
      Snap.Gauges[Name] += Value;
    for (const auto &[Name, Value] : Record->MaxGauges) {
      auto [It, Inserted] = Snap.Gauges.emplace(Name, Value);
      if (!Inserted)
        It->second = std::max(It->second, Value);
    }
    for (const auto &[Name, Hist] : Record->Histograms) {
      auto [It, Inserted] = Snap.Histograms.emplace(Name, Hist);
      if (!Inserted)
        It->second.merge(Hist);
    }
  }
  Snap.Spans.reserve(MergedSpans.size());
  for (const auto &[Path, Agg] : MergedSpans) {
    SpanStat S;
    S.Path = Path;
    S.Count = Agg.Count;
    S.TotalNanos = Agg.TotalNanos;
    S.SelfNanos = Agg.SelfNanos;
    Snap.Spans.push_back(std::move(S));
  }
  return Snap;
}

void Telemetry::counterAdd(const char *Name, uint64_t Delta) {
  if (!enabled())
    return;
  threadRecord().Counters[Name] += Delta;
}

void Telemetry::gaugeMax(const char *Name, double Value) {
  if (!enabled())
    return;
  auto [It, Inserted] = threadRecord().MaxGauges.emplace(Name, Value);
  if (!Inserted)
    It->second = std::max(It->second, Value);
}

void Telemetry::gaugeSum(const char *Name, double Value) {
  if (!enabled())
    return;
  threadRecord().SumGauges[Name] += Value;
}

void Telemetry::observe(const char *Name, double Value) {
  if (!enabled())
    return;
  auto &Histograms = threadRecord().Histograms;
  auto It = Histograms.find(Name);
  if (It == Histograms.end())
    It = Histograms.emplace(Name, makePow2Histogram()).first;
  It->second.add(Value);
}

std::string Telemetry::currentPath() {
  if (!enabled())
    return {};
  return TLCurrentSpan ? TLCurrentSpan->Path : TLTaskPath;
}

TelemetrySpan::TelemetrySpan(const char *Name) {
  if (TraceEventRecorder::armed()) {
    EventName = Name;
    TraceEventRecorder::begin(Name);
  }
  if (!Telemetry::enabled())
    return;
  Active = true;
  Parent = TLCurrentSpan;
  if (Parent)
    Path = Parent->Path + '/' + Name;
  else if (!TLTaskPath.empty())
    Path = TLTaskPath + '/' + Name;
  else
    Path = Name;
  TLCurrentSpan = this;
  StartNanos = Telemetry::nowNanos();
}

TelemetrySpan::~TelemetrySpan() {
  if (EventName)
    TraceEventRecorder::end(EventName);
  if (!Active)
    return;
  uint64_t Duration = Telemetry::nowNanos() - StartNanos;
  TLCurrentSpan = Parent;
  if (Parent)
    Parent->ChildNanos += Duration;
  detail::SpanAgg &Agg = Telemetry::threadRecord().Spans[Path];
  ++Agg.Count;
  Agg.TotalNanos += Duration;
  Agg.SelfNanos += Duration > ChildNanos ? Duration - ChildNanos : 0;
}

TelemetryTaskScope::TelemetryTaskScope(const std::string &Path) {
  if (!Telemetry::enabled())
    return;
  Active = true;
  SavedPath = std::move(TLTaskPath);
  TLTaskPath = Path;
}

TelemetryTaskScope::~TelemetryTaskScope() {
  if (!Active)
    return;
  TLTaskPath = std::move(SavedPath);
}
