//===- support/MetricsSink.cpp --------------------------------------------===//

#include "support/MetricsSink.h"

#include "support/TablePrinter.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace rprism;

namespace {

/// JSON string escaping (metric names are plain identifiers, but the
/// schema must stay valid for any input).
std::string jsonEscape(const std::string &Raw) {
  std::string Out;
  Out.reserve(Raw.size());
  for (char C : Raw) {
    switch (C) {
    case '"':  Out += "\\\""; break;
    case '\\': Out += "\\\\"; break;
    case '\n': Out += "\\n"; break;
    case '\t': Out += "\\t"; break;
    case '\r': Out += "\\r"; break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out.push_back(C);
      }
    }
  }
  return Out;
}

/// Doubles rendered with enough precision to round-trip gauge nanos.
std::string jsonNumber(double Value) {
  if (!std::isfinite(Value))
    return "0";
  if (Value == std::floor(Value) && std::fabs(Value) < 1e15) {
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), "%.0f", Value);
    return Buf;
  }
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.6g", Value);
  return Buf;
}

} // namespace

std::string rprism::renderMetricsJson(const TelemetrySnapshot &Snap,
                                      const MetricsRunInfo &Info) {
  std::ostringstream OS;
  OS << "{\n"
     << "  \"schema\": \"" << kMetricsSchema << "\",\n"
     << "  \"tool\": \"" << jsonEscape(Info.Tool) << "\",\n"
     << "  \"command\": \"" << jsonEscape(Info.Command) << "\",\n"
     << "  \"wall_ns\": " << Info.WallNanos << ",\n";

  OS << "  \"spans\": [";
  for (size_t I = 0; I != Snap.Spans.size(); ++I) {
    const SpanStat &S = Snap.Spans[I];
    OS << (I ? ",\n    " : "\n    ") << "{\"path\": \""
       << jsonEscape(S.Path) << "\", \"name\": \"" << jsonEscape(S.name())
       << "\", \"parent\": \"" << jsonEscape(S.parent())
       << "\", \"count\": " << S.Count << ", \"total_ns\": " << S.TotalNanos
       << ", \"self_ns\": " << S.SelfNanos << "}";
  }
  OS << (Snap.Spans.empty() ? "],\n" : "\n  ],\n");

  OS << "  \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : Snap.Counters) {
    OS << (First ? "\n    " : ",\n    ") << "\"" << jsonEscape(Name)
       << "\": " << Value;
    First = false;
  }
  OS << (First ? "},\n" : "\n  },\n");

  OS << "  \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : Snap.Gauges) {
    OS << (First ? "\n    " : ",\n    ") << "\"" << jsonEscape(Name)
       << "\": " << jsonNumber(Value);
    First = false;
  }
  OS << (First ? "},\n" : "\n  },\n");

  OS << "  \"histograms\": {";
  First = true;
  for (const auto &[Name, Hist] : Snap.Histograms) {
    OS << (First ? "\n    " : ",\n    ") << "\"" << jsonEscape(Name)
       << "\": {\"total\": " << Hist.total()
       << ", \"p50\": " << jsonNumber(Hist.quantile(0.50))
       << ", \"p95\": " << jsonNumber(Hist.quantile(0.95))
       << ", \"p99\": " << jsonNumber(Hist.quantile(0.99))
       << ", \"buckets\": [";
    bool FirstBucket = true;
    for (size_t I = 0; I != Hist.numBuckets(); ++I) {
      if (Hist.count(I) == 0)
        continue; // Sparse: pow2 shapes have many empty buckets.
      OS << (FirstBucket ? "" : ", ") << "{\"le\": \""
         << jsonEscape(Hist.label(I)) << "\", \"count\": " << Hist.count(I)
         << "}";
      FirstBucket = false;
    }
    OS << "]}";
    First = false;
  }
  OS << (First ? "}\n" : "\n  }\n");

  OS << "}\n";
  return OS.str();
}

bool rprism::writeMetricsJson(const TelemetrySnapshot &Snap,
                              const MetricsRunInfo &Info,
                              const std::string &Path) {
  std::ofstream Out(Path, std::ios::binary);
  if (!Out)
    return false;
  Out << renderMetricsJson(Snap, Info);
  return static_cast<bool>(Out);
}

std::string rprism::renderProfileTable(const TelemetrySnapshot &Snap,
                                       size_t MaxStages) {
  std::ostringstream OS;

  // Stage table sorted by self-time: where the pipeline actually spends
  // its time, with the nesting still readable from the path column.
  std::vector<const SpanStat *> ByLoad;
  ByLoad.reserve(Snap.Spans.size());
  uint64_t TotalSelf = 0;
  for (const SpanStat &S : Snap.Spans) {
    ByLoad.push_back(&S);
    TotalSelf += S.SelfNanos;
  }
  std::stable_sort(ByLoad.begin(), ByLoad.end(),
                   [](const SpanStat *A, const SpanStat *B) {
                     return A->SelfNanos > B->SelfNanos;
                   });

  size_t Shown = ByLoad.size();
  if (MaxStages != 0 && MaxStages < Shown)
    Shown = MaxStages;

  TablePrinter Stages;
  Stages.setHeader({"stage", "count", "total ms", "self ms", "self %"});
  for (size_t I = 0; I != Shown; ++I) {
    const SpanStat *S = ByLoad[I];
    double Share = TotalSelf
                       ? 100.0 * static_cast<double>(S->SelfNanos) /
                             static_cast<double>(TotalSelf)
                       : 0;
    Stages.addRow({S->Path, TablePrinter::fmtInt(S->Count),
                   TablePrinter::fmt(static_cast<double>(S->TotalNanos) / 1e6,
                                     3),
                   TablePrinter::fmt(static_cast<double>(S->SelfNanos) / 1e6,
                                     3),
                   TablePrinter::fmt(Share, 1)});
  }
  OS << "-- stages (top " << Shown << " by self time) --\n";
  Stages.print(OS);
  if (Shown != ByLoad.size())
    OS << "(" << ByLoad.size() - Shown << " more stage"
       << (ByLoad.size() - Shown == 1 ? "" : "s") << " elided; see"
       << " --metrics-out for the full list)\n";

  if (!Snap.Counters.empty()) {
    TablePrinter Counters;
    Counters.setHeader({"counter", "value"});
    for (const auto &[Name, Value] : Snap.Counters)
      Counters.addRow({Name, TablePrinter::fmtInt(Value)});
    OS << "\n-- counters --\n";
    Counters.print(OS);
  }

  if (!Snap.Gauges.empty()) {
    TablePrinter Gauges;
    Gauges.setHeader({"gauge", "value"});
    for (const auto &[Name, Value] : Snap.Gauges)
      Gauges.addRow({Name, TablePrinter::fmt(Value, 3)});
    OS << "\n-- gauges --\n";
    Gauges.print(OS);
  }

  if (double Rate = Snap.traceProductionRate(); Rate > 0)
    OS << "\n-- trace production --\nvm-run entries/sec: "
       << TablePrinter::fmtInt(static_cast<uint64_t>(Rate)) << '\n';

  // Trace I/O throughput per layer: bytes written under `write`, bytes
  // checksummed under `load`.
  double WriteRate = Snap.throughput("write.bytes", "write");
  double LoadRate = Snap.throughput("load.bytes_verified", "load");
  if (WriteRate > 0 || LoadRate > 0) {
    OS << "\n-- trace i/o --\n";
    if (WriteRate > 0)
      OS << "write GB/s: " << TablePrinter::fmt(WriteRate / 1e9, 3) << '\n';
    if (LoadRate > 0)
      OS << "load GB/s: " << TablePrinter::fmt(LoadRate / 1e9, 3) << '\n';
  }

  for (const auto &[Name, Hist] : Snap.Histograms)
    if (Hist.total() != 0) {
      OS << '\n';
      Hist.print(OS, "-- histogram: " + Name + " --");
      OS << "  n=" << Hist.total()
         << "  p50<=" << TablePrinter::fmt(Hist.quantile(0.50), 0)
         << "  p95<=" << TablePrinter::fmt(Hist.quantile(0.95), 0)
         << "  p99<=" << TablePrinter::fmt(Hist.quantile(0.99), 0) << '\n';
    }
  return OS.str();
}
