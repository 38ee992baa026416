//===- perfbench/tool.cpp - Benchmark helper for run.py -------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The C++ half of the end-to-end benchmark (run.py drives it):
///
///   perfbench_tool setup  --workload W --seed N --dir D [--repeat R]
///                         [--budget S]
///       Generates the workload's programs and inputs into D and writes
///       D/manifest.json (commands, jobs, expected values). Generation
///       runs R times, or fewer (but at least once) once S seconds are
///       spent; stdout gets the wall time of each repetition.
///   perfbench_tool inproc --dir D --mode plain|traced --out F
///       Runs the job of D/manifest.json (its commands, in order) in this
///       process, calling the public functions each `rprism` subcommand
///       calls, in the same order. Traced mode records one span per call (name, start, end,
///       parent) in memory and enables the program's own telemetry
///       counters; both are written to F when the job ends.
///   perfbench_tool cli --dir D --rprism PATH --out F
///       Runs the job of D/manifest.json through the CLI: each command as a
///       child process of this small one, started after the previous one
///       exits, with stdout and stderr in D/cli-<id>.stdout|.stderr. F gets
///       each command's wall time, exit code and peak RSS (rusage).
///   perfbench_tool host --jobs J --entries N
///       Prints the SIMD tier, VM dispatch tier and effective diff jobs.
///
//===----------------------------------------------------------------------===//

#include "analysis/Regression.h"
#include "cache/DiffCache.h"
#include "lang/Checker.h"
#include "lang/Parser.h"
#include "lang/PrettyPrinter.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Json.h"
#include "support/Rng.h"
#include "support/SimdDispatch.h"
#include "support/Telemetry.h"
#include "support/ThreadPool.h"
#include "trace/Serialize.h"
#include "workload/Corpus.h"
#include "workload/Generator.h"
#include "workload/Mutator.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace rprism;
namespace fs = std::filesystem;

namespace {

// --- small utilities ------------------------------------------------------

[[noreturn]] void die(const std::string &Message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", Message.c_str());
  std::exit(1);
}

uint64_t nowNanos() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    die("cannot open '" + Path + "'");
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

void writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out << Text;
  if (!Out)
    die("cannot write '" + Path + "'");
}

std::string jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += static_cast<char>(C);
      }
    }
  }
  return Out + "\"";
}

std::string jsonList(const std::vector<std::string> &Items) {
  std::string Out = "[";
  for (size_t I = 0; I != Items.size(); ++I)
    Out += (I ? ", " : "") + jsonQuote(Items[I]);
  return Out + "]";
}

/// Command-line flags as name -> value (every flag takes one value).
std::map<std::string, std::string> parseFlags(int Argc, char **Argv) {
  std::map<std::string, std::string> Flags;
  for (int I = 2; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg.rfind("--", 0) != 0 || I + 1 >= Argc)
      die("bad argument '" + Arg + "'");
    Flags[Arg.substr(2)] = Argv[++I];
  }
  return Flags;
}

std::string flag(const std::map<std::string, std::string> &Flags,
                 const std::string &Name) {
  auto It = Flags.find(Name);
  if (It == Flags.end())
    die("missing --" + Name);
  return It->second;
}

// --- workload set-up ------------------------------------------------------

/// One CLI command of the workload's job. Argv is what follows `rprism`;
/// the remaining fields let the in-process run repeat the command without
/// re-parsing it.
struct Command {
  std::string Id;
  std::string Kind; ///< run | diff-traces | diff-nway | analyze
  std::vector<std::string> Argv;
  std::vector<std::string> Files; ///< Programs (run, analyze) or traces.
  std::string TracePath;          ///< run: --trace file.
  std::vector<std::string> IntInputs, RegrInputs, OkInputs;
  unsigned Jobs = 0; ///< --jobs (0 = the CLI default).
  /// Expected stdout, when the benchmark knows it independently.
  std::optional<std::string> ExpectStdout;
  /// Trace entries the command records, when known at set-up.
  std::optional<uint64_t> Entries;
};

/// A workload's inputs and its job: every command, in order.
struct Workload {
  std::map<std::string, std::string> Sources; ///< File name -> program.
  std::vector<Command> Commands;
  std::vector<std::string> Notes; ///< Human-readable set-up facts.
};

Command runCommand(const std::string &Id, const std::string &Prog,
                   const std::string &Trace,
                   std::vector<std::string> IntInputs = {}) {
  Command C;
  C.Id = Id;
  C.Kind = "run";
  C.Files = {Prog};
  C.TracePath = Trace;
  C.IntInputs = std::move(IntInputs);
  C.Argv = {"run", Prog};
  for (const std::string &N : C.IntInputs) {
    C.Argv.push_back("--int-input");
    C.Argv.push_back(N);
  }
  C.Argv.push_back("--trace");
  C.Argv.push_back(Trace);
  return C;
}

Command diffCommand(const std::string &Id, const std::string &Kind,
                    std::vector<std::string> Traces, unsigned Jobs) {
  Command C;
  C.Id = Id;
  C.Kind = Kind;
  C.Files = std::move(Traces);
  C.Jobs = Jobs;
  C.Argv = {Kind};
  C.Argv.insert(C.Argv.end(), C.Files.begin(), C.Files.end());
  if (Jobs) {
    C.Argv.push_back("--jobs");
    C.Argv.push_back(std::to_string(Jobs));
  }
  return C;
}

/// Iterations of the long-loop program: 7 trace entries each, about 1.5M
/// entries per side.
constexpr int64_t LongLoopIters = 215000;

std::string longLoopSource(int64_t Rate, int64_t Start, int64_t Mul,
                           int64_t Off) {
  std::ostringstream OS;
  OS << "class Tax {\n"
        "  Int rate;\n"
        "  Tax(Int rate) { this.rate = rate; }\n"
        "  Int apply(Int amount) { return amount + amount * this.rate / "
        "100; }\n"
        "}\n"
        "class Item {\n"
        "  Int price;\n"
        "  Item(Int price) { this.price = price; }\n"
        "}\n"
        "main {\n"
     << "  var t = new Tax(" << Rate << ");\n"
     << "  var total = " << Start << ";\n"
     << "  var i = 0;\n"
        "  var n = inputInt(0);\n"
        "  while (i < n) {\n"
     << "    var it = new Item(i * " << Mul << " + " << Off << ");\n"
     << "    total = total + t.apply(it.price);\n"
        "    i = i + 1;\n"
        "  }\n"
        "  print(total);\n"
        "}\n";
  return OS.str();
}

/// The long-loop program's printed total, computed here rather than by the
/// VM: every price is positive, so the language's truncating division and
/// C++'s agree.
int64_t longLoopTotal(int64_t Rate, int64_t Start, int64_t Mul, int64_t Off,
                      int64_t Iters) {
  int64_t Total = Start;
  for (int64_t I = 0; I < Iters; ++I) {
    int64_t Price = I * Mul + Off;
    Total += Price + Price * Rate / 100;
  }
  return Total;
}

Workload setupLongLoop(uint64_t Seed) {
  Rng R(Seed * 0x100000001b3ULL + 1);
  int64_t Rate = R.nextInRange(5, 40);
  int64_t Start = R.nextInRange(1, 1000);
  // The multiplier stays fixed so that every seed records values of the
  // same magnitudes (rendering and interning cost depend on them).
  int64_t Mul = 7;
  int64_t Off = R.nextInRange(1, 100);
  Workload W;
  W.Sources["old.rp"] = longLoopSource(Rate, Start, Mul, Off);
  W.Sources["new.rp"] = longLoopSource(Rate + 1, Start, Mul, Off);
  std::string Iters = std::to_string(LongLoopIters);
  Command Old = runCommand("run-old", "old.rp", "old.rpt", {Iters});
  Old.ExpectStdout =
      std::to_string(longLoopTotal(Rate, Start, Mul, Off, LongLoopIters)) +
      "\n";
  Command New = runCommand("run-new", "new.rp", "new.rpt", {Iters});
  New.ExpectStdout = std::to_string(longLoopTotal(Rate + 1, Start, Mul, Off,
                                                  LongLoopIters)) +
                     "\n";
  W.Commands = {Old, New,
                diffCommand("diff", "diff-traces", {"old.rpt", "new.rpt"}, 0)};
  W.Notes.push_back("rate " + std::to_string(Rate) + " -> " +
                    std::to_string(Rate + 1) + ", " + Iters + " iterations");
  return W;
}

/// Main-loop iterations of the threads programs: about 0.9M entries per
/// side over 4 threads.
constexpr unsigned ThreadsOuterIters = 7250;

Workload setupThreads(uint64_t Seed) {
  GeneratorOptions Options;
  Options.NumClasses = 4;
  Options.NumThreads = 4;
  Options.OuterIters = ThreadsOuterIters;
  Options.Seed = Seed;
  Workload W;
  W.Sources["base.rp"] = generateProgram(Options);
  Options.ReorderBlock = true;
  Options.Perturb = 1;
  W.Sources["p1.rp"] = generateProgram(Options);
  Options.Perturb = 2;
  W.Sources["p2.rp"] = generateProgram(Options);
  W.Commands = {
      runCommand("run-base", "base.rp", "base.rpt"),
      runCommand("run-p1", "p1.rp", "p1.rpt"),
      runCommand("run-p2", "p2.rp", "p2.rpt"),
      diffCommand("diff", "diff-traces", {"base.rpt", "p1.rpt"}, 4),
      diffCommand("nway", "diff-nway", {"base.rpt", "p1.rpt", "p2.rpt"}, 4)};
  return W;
}

/// Injected §5.1 regressions on the rhino interpreter; the job analyses
/// every case once, in order.
constexpr unsigned RegressHuntCases = 256;

/// Draws case \p K: the first mutant of \p Base (sampleMutationKind +
/// applyMutation, printed with printProgram) whose regressing input's
/// output changes.
Command drawRegression(const std::string &Base, const CompiledProgram &BaseProg,
                       uint64_t Seed, unsigned K, Workload &W) {
  RunOptions RegrRun, OkRun;
  rhinoInputs(K, RegrRun, OkRun);
  RunResult BaseRegr = runProgram(BaseProg, RegrRun);
  RunResult BaseOk = runProgram(BaseProg, OkRun);
  if (!BaseRegr.Completed || !BaseOk.Completed)
    die("rhino base does not run cleanly");
  // Mutants whose runs take more than twice the base run's steps are
  // redrawn, so that every seed draws cases of similar cost.
  uint64_t StepCap = 2 * std::max(BaseRegr.Steps, BaseOk.Steps);

  Rng R(Seed * 1000003ULL + K);
  for (unsigned Attempt = 0; Attempt != 300; ++Attempt) {
    MutationKind Kind = sampleMutationKind(R);
    Expected<Program> Fresh = parseProgram(Base);
    if (!Fresh)
      die("rhino base re-parse failed");
    MutationOutcome Outcome;
    if (!applyMutation(*Fresh, Kind, R, Outcome))
      continue;
    // The CLI sees the printed source, so acceptance runs it too.
    std::string Source = printProgram(*Fresh);
    Expected<CompiledProgram> Mutant = compileSource(Source);
    if (!Mutant)
      continue;
    RunOptions RegrCapped = RegrRun, OkCapped = OkRun;
    RegrCapped.MaxSteps = OkCapped.MaxSteps = StepCap;
    RunResult MutRegr = runProgram(*Mutant, RegrCapped);
    if (MutRegr.Steps >= StepCap || MutRegr.Output == BaseRegr.Output)
      continue;
    RunResult MutOk = runProgram(*Mutant, OkCapped);
    if (MutOk.Steps >= StepCap)
      continue;

    std::string Name = "mutant" + std::to_string(K) + ".rp";
    W.Sources[Name] = Source;
    Command C;
    C.Id = "analyze-" + std::to_string(K);
    C.Kind = "analyze";
    C.Files = {"base.rp", Name};
    C.RegrInputs = RegrRun.Inputs;
    C.OkInputs = OkRun.Inputs;
    C.Argv = {"analyze", "base.rp", Name};
    for (const std::string &S : C.RegrInputs) {
      C.Argv.push_back("--regr-input");
      C.Argv.push_back(S);
    }
    for (const std::string &S : C.OkInputs) {
      C.Argv.push_back("--ok-input");
      C.Argv.push_back(S);
    }
    C.Entries = BaseRegr.ExecTrace.size() + BaseOk.ExecTrace.size() +
                MutRegr.ExecTrace.size() + MutOk.ExecTrace.size();
    W.Notes.push_back(C.Id + ": " + mutationKindName(Outcome.Kind) + " in " +
                      Outcome.Method);
    return C;
  }
  die("no discriminating mutant for case " + std::to_string(K));
}

Workload setupRegressHunt(uint64_t Seed) {
  Workload W;
  const std::string Base = rhinoBaseSource();
  W.Sources["base.rp"] = Base;
  Expected<CompiledProgram> BaseProg = compileSource(Base);
  if (!BaseProg)
    die("rhino base: " + BaseProg.error().render());
  for (unsigned K = 0; K != RegressHuntCases; ++K)
    W.Commands.push_back(drawRegression(Base, *BaseProg, Seed, K, W));
  return W;
}

Workload setupWorkload(const std::string &Name, uint64_t Seed) {
  if (Name == "long-loop")
    return setupLongLoop(Seed);
  if (Name == "threads")
    return setupThreads(Seed);
  if (Name == "regress-hunt")
    return setupRegressHunt(Seed);
  die("unknown workload '" + Name + "'");
}

std::string manifestJson(const std::string &Name, uint64_t Seed,
                         const Workload &W) {
  std::ostringstream OS;
  OS << "{\n  \"workload\": " << jsonQuote(Name) << ",\n  \"seed\": " << Seed
     << ",\n  \"notes\": " << jsonList(W.Notes) << ",\n  \"commands\": [";
  for (size_t I = 0; I != W.Commands.size(); ++I) {
    const Command &C = W.Commands[I];
    OS << (I ? ",\n" : "\n") << "    {\"id\": " << jsonQuote(C.Id)
       << ", \"kind\": " << jsonQuote(C.Kind)
       << ", \"argv\": " << jsonList(C.Argv)
       << ", \"files\": " << jsonList(C.Files)
       << ", \"trace\": " << jsonQuote(C.TracePath)
       << ", \"int_inputs\": " << jsonList(C.IntInputs)
       << ", \"regr_inputs\": " << jsonList(C.RegrInputs)
       << ", \"ok_inputs\": " << jsonList(C.OkInputs)
       << ", \"jobs\": " << C.Jobs;
    if (C.ExpectStdout)
      OS << ", \"expect_stdout\": " << jsonQuote(*C.ExpectStdout);
    if (C.Entries)
      OS << ", \"entries\": " << *C.Entries;
    OS << "}";
  }
  OS << "\n  ]\n}\n";
  return OS.str();
}

int cmdSetup(const std::map<std::string, std::string> &Flags) {
  std::string Name = flag(Flags, "workload");
  uint64_t Seed = std::stoull(flag(Flags, "seed"));
  fs::path Dir = flag(Flags, "dir");
  unsigned Repeat = Flags.count("repeat") ? std::stoul(Flags.at("repeat")) : 1;
  double Budget = Flags.count("budget") ? std::stod(Flags.at("budget")) : 1e9;
  fs::create_directories(Dir);
  // Only generation is timed: file-system latency would swamp the
  // sub-millisecond set-up of long-loop and threads.
  std::vector<double> Seconds;
  double Spent = 0;
  Workload W;
  std::string Manifest;
  for (unsigned Rep = 0; Rep != std::max(Repeat, 1u); ++Rep) {
    if (Rep && Spent >= Budget)
      break;
    uint64_t Start = nowNanos();
    W = setupWorkload(Name, Seed);
    Manifest = manifestJson(Name, Seed, W);
    Seconds.push_back(static_cast<double>(nowNanos() - Start) * 1e-9);
    Spent += Seconds.back();
  }
  for (const auto &[File, Source] : W.Sources)
    writeFile((Dir / File).string(), Source);
  writeFile((Dir / "manifest.json").string(), Manifest);
  std::printf("{\"setup_s\": [");
  for (size_t I = 0; I != Seconds.size(); ++I)
    std::printf("%s%.9f", I ? ", " : "", Seconds[I]);
  std::printf("]}\n");
  return 0;
}

// --- in-process run -------------------------------------------------------

/// One span: a call into the program, timed from the benchmark's side.
struct Span {
  std::string Name;
  uint64_t Start = 0;
  uint64_t End = 0;
  int Parent = -1;
};

/// Spans of one in-process run, kept in memory until the run ends. When
/// disabled (plain mode) opening a span reads no clock and stores nothing.
class SpanLog {
public:
  explicit SpanLog(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }

  int open(const char *Name) {
    if (!Enabled)
      return -1;
    Span S;
    S.Name = Name;
    S.Parent = Stack.empty() ? -1 : Stack.back();
    S.Start = nowNanos();
    Spans.push_back(std::move(S));
    Stack.push_back(static_cast<int>(Spans.size() - 1));
    return Stack.back();
  }

  void close(int Index) {
    if (Index < 0)
      return;
    Spans[Index].End = nowNanos();
    Stack.pop_back();
  }

  const std::vector<Span> &spans() const { return Spans; }

private:
  bool Enabled;
  std::vector<Span> Spans;
  std::vector<int> Stack;
};

class ScopedSpan {
public:
  ScopedSpan(SpanLog &Log, const char *Name)
      : Log(Log), Index(Log.open(Name)) {}
  ~ScopedSpan() { Log.close(Index); }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  SpanLog &Log;
  int Index;
};

/// Runs \p F under a span named \p Name and returns its result.
template <typename F> auto timed(SpanLog &Log, const char *Name, F &&Fn) {
  ScopedSpan S(Log, Name);
  return Fn();
}

/// What one in-process command produced, for the equivalence check and
/// the per-layer numbers.
struct CommandResult {
  std::string Id;
  std::string Stdout;
  bool Ok = true;
  uint64_t WallNanos = 0;
  uint64_t CompareOps = 0;
  uint64_t Entries = 0;
  uint64_t Steps = 0;
  uint64_t FileBytes = 0;   ///< Trace bytes written (run).
  uint64_t LoadedBytes = 0; ///< Trace bytes loaded (diff-traces, diff-nway).
  uint64_t FilesLoaded = 0;
  unsigned EffectiveJobs = 0;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, double> Gauges;
};

std::vector<std::string> strings(const JsonValue *V) {
  std::vector<std::string> Out;
  if (V)
    for (const JsonValue &S : V->array())
      Out.push_back(S.str());
  return Out;
}

/// The in-process run writes its own trace files beside the CLI's, so the
/// two can be compared byte for byte.
std::string ownPath(const fs::path &Dir, const std::string &File) {
  return (Dir / ("inproc-" + File)).string();
}

/// Parse, check and compile one program file, as `rprism`'s compileFile
/// does through compileSource.
CompiledProgram compileTimed(SpanLog &Log, const fs::path &Dir,
                             const std::string &File,
                             std::shared_ptr<StringInterner> Strings) {
  std::string Source = timed(Log, "cli.read_source",
                             [&] { return readFile((Dir / File).string()); });
  Expected<Program> Ast =
      timed(Log, "lang.parse", [&] { return parseProgram(Source); });
  if (!Ast)
    die(File + ": " + Ast.error().render());
  Expected<CheckedProgram> Checked =
      timed(Log, "lang.check", [&] { return checkProgram(Ast.take()); });
  if (!Checked)
    die(File + ": " + Checked.error().render());
  Expected<CompiledProgram> Prog = timed(Log, "runtime.compile", [&] {
    return compileProgram(*Checked, std::move(Strings));
  });
  if (!Prog)
    die(File + ": " + Prog.error().render());
  return Prog.take();
}

RunResult runTimed(SpanLog &Log, const CompiledProgram &Prog,
                   std::vector<std::string> Inputs,
                   const std::vector<std::string> &IntInputs,
                   const char *Name) {
  RunOptions Options;
  Options.Inputs = std::move(Inputs);
  for (const std::string &N : IntInputs)
    Options.IntInputs.push_back(std::atoll(N.c_str()));
  Options.TraceName = Name;
  return timed(Log, "runtime.run", [&] { return runProgram(Prog, Options); });
}

void doRun(SpanLog &Log, const JsonValue &C, const fs::path &Dir,
           CommandResult &Out) {
  std::string File = strings(C.find("files"))[0];
  CompiledProgram Prog = compileTimed(Log, Dir, File, nullptr);
  RunResult Result =
      runTimed(Log, Prog, {}, strings(C.find("int_inputs")), "run");
  std::string Path = ownPath(Dir, C.stringOr("trace", ""));
  bool Written = timed(Log, "trace.write",
                       [&] { return writeTrace(Result.ExecTrace, Path); });
  Out.Ok = Result.Completed && Written;
  Out.Stdout = Result.Output;
  Out.Entries = Result.ExecTrace.size();
  Out.Steps = Result.Steps;
  Out.FileBytes = fs::file_size(Path);
}

std::shared_ptr<const Trace> loadTimed(SpanLog &Log, const std::string &Path,
                                       std::shared_ptr<StringInterner> Strings,
                                       CommandResult &Out) {
  Err Error;
  std::shared_ptr<const Trace> T = timed(Log, "trace.load", [&] {
    return DiffCache::global().load(Path, std::move(Strings), &Error);
  });
  if (!T)
    die(Error.render());
  Out.LoadedBytes += fs::file_size(Path);
  ++Out.FilesLoaded;
  return T;
}

void doDiffTraces(SpanLog &Log, const JsonValue &C, const fs::path &Dir,
                  CommandResult &Out) {
  std::vector<std::string> Files = strings(C.find("files"));
  auto Strings = std::make_shared<StringInterner>();
  DiffCache &Cache = DiffCache::global();
  std::shared_ptr<const Trace> Left =
      loadTimed(Log, ownPath(Dir, Files[0]), Strings, Out);
  std::shared_ptr<const Trace> Right =
      loadTimed(Log, ownPath(Dir, Files[1]), Strings, Out);

  // cachedViewsDiff, one call per layer.
  ViewsDiffOptions Options;
  Options.Jobs = static_cast<unsigned>(C.numberOr("jobs", 0));
  std::optional<ThreadPool> Pool;
  timed(Log, "diff.pool", [&] {
    Out.EffectiveJobs =
        effectiveDiffJobs(Options, Left->size() + Right->size());
    Pool.emplace(Out.EffectiveJobs);
    return 0;
  });
  std::shared_ptr<const ViewWeb> LeftWeb = timed(Log, "views.web", [&] {
    return Cache.web(*Left, &*Pool, Options.UseViewIndex);
  });
  std::shared_ptr<const ViewWeb> RightWeb = timed(Log, "views.web", [&] {
    return Cache.web(*Right, &*Pool, Options.UseViewIndex);
  });
  std::shared_ptr<const ViewCorrelation> X = timed(
      Log, "correlate.correlate",
      [&] { return Cache.correlation(*LeftWeb, *RightWeb); });
  DiffResult Result = timed(Log, "diff.evaluate", [&] {
    return viewsDiff(*LeftWeb, *RightWeb, *X, Options, &*Pool);
  });
  timed(Log, "diff.pool", [&] {
    Pool.reset();
    return 0;
  });
  Out.Stdout = timed(Log, "diff.render", [&] { return Result.render(50, 12); });
  Out.CompareOps = Result.Stats.CompareOps;
}

void doDiffNWay(SpanLog &Log, const JsonValue &C, const fs::path &Dir,
                CommandResult &Out) {
  auto Strings = std::make_shared<StringInterner>();
  std::vector<std::shared_ptr<const Trace>> Owned;
  std::vector<const Trace *> Traces;
  for (const std::string &File : strings(C.find("files"))) {
    Owned.push_back(loadTimed(Log, ownPath(Dir, File), Strings, Out));
    Traces.push_back(Owned.back().get());
  }
  ViewsDiffOptions Options;
  Options.Jobs = static_cast<unsigned>(C.numberOr("jobs", 0));
  std::vector<const Trace *> Mutants(Traces.begin() + 1, Traces.end());
  NWayResult Result = timed(Log, "diff.nway", [&] {
    return cachedNWayDiff(*Traces[0], Mutants, Options, DiffCache::global());
  });
  Out.Stdout = timed(Log, "diff.nway_render", [&] { return Result.render(); });
  Out.CompareOps = Result.totalCompareOps();
}

void doAnalyze(SpanLog &Log, const JsonValue &C, const fs::path &Dir,
               CommandResult &Out) {
  std::vector<std::string> Files = strings(C.find("files"));
  std::vector<std::string> Regr = strings(C.find("regr_inputs"));
  std::vector<std::string> Ok = strings(C.find("ok_inputs"));
  auto Strings = std::make_shared<StringInterner>();
  CompiledProgram Old = compileTimed(Log, Dir, Files[0], Strings);
  CompiledProgram New = compileTimed(Log, Dir, Files[1], Strings);
  RunResult OrigOk = runTimed(Log, Old, Ok, {}, "orig-ok");
  RunResult OrigRegr = runTimed(Log, Old, Regr, {}, "orig-regr");
  RunResult NewOk = runTimed(Log, New, Ok, {}, "new-ok");
  RunResult NewRegr = runTimed(Log, New, Regr, {}, "new-regr");
  RegressionInputs Inputs{&OrigOk.ExecTrace, &OrigRegr.ExecTrace,
                          &NewOk.ExecTrace, &NewRegr.ExecTrace};
  RegressionOptions Options;
  RegressionReport Report = timed(Log, "analysis.analyze", [&] {
    return analyzeRegression(Inputs, Options);
  });
  Out.Stdout =
      timed(Log, "analysis.render", [&] { return Report.render(20, 14); });
  Out.CompareOps = Report.Stats.CompareOps;
  Out.Entries = OrigOk.ExecTrace.size() + OrigRegr.ExecTrace.size() +
                NewOk.ExecTrace.size() + NewRegr.ExecTrace.size();
  Out.Steps = OrigOk.Steps + OrigRegr.Steps + NewOk.Steps + NewRegr.Steps;
}

/// Runs one command the way its `rprism` subcommand does, starting cold:
/// the process-wide DiffCache is emptied first, as in a fresh process.
CommandResult runCommandInProcess(SpanLog &Log, const JsonValue &C,
                                  const fs::path &Dir) {
  CommandResult Out;
  Out.Id = C.stringOr("id", "");
  std::string Kind = C.stringOr("kind", "");
  DiffCache::global().clear();
  if (Log.enabled())
    Telemetry::get().reset();
  uint64_t Start = nowNanos();
  {
    std::string SpanName = "cmd." + Kind;
    ScopedSpan Root(Log, SpanName.c_str());
    if (Kind == "run")
      doRun(Log, C, Dir, Out);
    else if (Kind == "diff-traces")
      doDiffTraces(Log, C, Dir, Out);
    else if (Kind == "diff-nway")
      doDiffNWay(Log, C, Dir, Out);
    else if (Kind == "analyze")
      doAnalyze(Log, C, Dir, Out);
    else
      die("unknown command kind '" + Kind + "'");
    // The CLI's process exit releases the cache; here that is explicit.
    timed(Log, "cli.teardown", [&] {
      DiffCache::global().clear();
      return 0;
    });
  }
  Out.WallNanos = nowNanos() - Start;
  if (Log.enabled()) {
    TelemetrySnapshot Snap = Telemetry::get().snapshot();
    Out.Counters = Snap.Counters;
    Out.Gauges = Snap.Gauges;
  }
  return Out;
}

std::string commandJson(const CommandResult &R) {
  std::ostringstream OS;
  OS << "{\"id\": " << jsonQuote(R.Id) << ", \"ok\": "
     << (R.Ok ? "true" : "false") << ", \"wall_ns\": " << R.WallNanos
     << ", \"compare_ops\": " << R.CompareOps << ", \"entries\": " << R.Entries
     << ", \"steps\": " << R.Steps << ", \"file_bytes\": " << R.FileBytes
     << ", \"loaded_bytes\": " << R.LoadedBytes
     << ", \"files_loaded\": " << R.FilesLoaded
     << ", \"effective_jobs\": " << R.EffectiveJobs << ", \"counters\": {";
  bool First = true;
  for (const auto &[Name, Value] : R.Counters) {
    OS << (First ? "" : ", ") << jsonQuote(Name) << ": " << Value;
    First = false;
  }
  OS << "}, \"gauges\": {";
  First = true;
  for (const auto &[Name, Value] : R.Gauges) {
    OS << (First ? "" : ", ") << jsonQuote(Name) << ": " << Value;
    First = false;
  }
  OS << "}}";
  return OS.str();
}

int cmdInProc(const std::map<std::string, std::string> &Flags) {
  fs::path Dir = flag(Flags, "dir");
  std::string Mode = flag(Flags, "mode");
  if (Mode != "plain" && Mode != "traced")
    die("--mode is plain or traced");
  Expected<JsonValue> Manifest =
      parseJson(readFile((Dir / "manifest.json").string()));
  if (!Manifest)
    die("manifest: " + Manifest.error().render());

  // Fresh trace files, as in the CLI job.
  const std::vector<JsonValue> &Commands = Manifest->find("commands")->array();
  for (const JsonValue &C : Commands)
    if (std::string Trace = C.stringOr("trace", ""); !Trace.empty())
      fs::remove(ownPath(Dir, Trace));

  SpanLog Log(Mode == "traced");
  Telemetry::get().setEnabled(Log.enabled());
  std::vector<CommandResult> Results;
  uint64_t Start = nowNanos();
  {
    ScopedSpan JobSpan(Log, "job");
    for (const JsonValue &C : Commands)
      Results.push_back(runCommandInProcess(Log, C, Dir));
  }
  uint64_t WallNanos = nowNanos() - Start;
  Telemetry::get().setEnabled(false);

  // Everything below runs after the measured job.
  std::ostringstream OS;
  OS << "{\"mode\": " << jsonQuote(Mode) << ", \"wall_ns\": " << WallNanos
     << ",\n\"commands\": [";
  for (size_t I = 0; I != Results.size(); ++I) {
    OS << (I ? ",\n" : "\n") << commandJson(Results[I]);
    writeFile(ownPath(Dir, Results[I].Id + ".out"), Results[I].Stdout);
  }
  OS << "\n], \"spans\": [";
  const std::vector<Span> &Spans = Log.spans();
  for (size_t I = 0; I != Spans.size(); ++I)
    OS << (I ? ",\n" : "\n") << "{\"name\": " << jsonQuote(Spans[I].Name)
       << ", \"start_ns\": " << Spans[I].Start
       << ", \"end_ns\": " << Spans[I].End
       << ", \"parent\": " << Spans[I].Parent << "}";
  OS << "\n]}\n";
  writeFile(flag(Flags, "out"), OS.str());
  return 0;
}

// --- CLI job ------------------------------------------------------------

/// Exit status and resources of one finished child.
struct ChildResult {
  double WallSeconds = 0;
  int ExitCode = -1;
  long MaxRssKb = 0;
};

/// Runs \p Argv as a child in \p Dir with stdout and stderr sent to files.
/// The wall time covers fork to reap. The child is forked from this small
/// process rather than from run.py because a child's peak RSS
/// includes what its parent had resident when it forked.
ChildResult runChild(const std::vector<std::string> &Argv, const fs::path &Dir,
                     const std::string &OutPath, const std::string &ErrPath) {
  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  std::string DirStr = Dir.string();

  ChildResult R;
  uint64_t Start = nowNanos();
  pid_t Pid = fork();
  if (Pid < 0)
    die("fork failed");
  if (Pid == 0) {
    int Out = open(OutPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    int Err = open(ErrPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (Out < 0 || Err < 0 || chdir(DirStr.c_str()) != 0 ||
        dup2(Out, 1) < 0 || dup2(Err, 2) < 0)
      _exit(127);
    execv(Args[0], Args.data());
    _exit(127);
  }
  int Status = 0;
  struct rusage Usage {};
  if (wait4(Pid, &Status, 0, &Usage) != Pid)
    die("wait4 failed");
  R.WallSeconds = static_cast<double>(nowNanos() - Start) * 1e-9;
  R.ExitCode = WIFEXITED(Status) ? WEXITSTATUS(Status) : 128 + WTERMSIG(Status);
  R.MaxRssKb = Usage.ru_maxrss;
  return R;
}

int cmdCli(const std::map<std::string, std::string> &Flags) {
  fs::path Dir = fs::absolute(flag(Flags, "dir"));
  std::string Rprism = fs::absolute(flag(Flags, "rprism")).string();
  Expected<JsonValue> Manifest =
      parseJson(readFile((Dir / "manifest.json").string()));
  if (!Manifest)
    die("manifest: " + Manifest.error().render());
  const std::vector<JsonValue> &Commands = Manifest->find("commands")->array();

  // Every job writes fresh trace files; replacing the last job's files
  // would put freeing their pages inside the timed `run`.
  for (const JsonValue &C : Commands)
    if (std::string Trace = C.stringOr("trace", ""); !Trace.empty())
      fs::remove(Dir / Trace);

  std::vector<ChildResult> Results;
  for (const JsonValue &C : Commands) {
    std::vector<std::string> Argv = {Rprism};
    for (const std::string &A : strings(C.find("argv")))
      Argv.push_back(A);
    std::string Id = C.stringOr("id", "");
    Results.push_back(runChild(Argv, Dir, (Dir / ("cli-" + Id + ".stdout")).string(),
                               (Dir / ("cli-" + Id + ".stderr")).string()));
  }

  std::ostringstream OS;
  OS << "[";
  for (size_t I = 0; I != Results.size(); ++I) {
    char Wall[32];
    std::snprintf(Wall, sizeof(Wall), "%.9f", Results[I].WallSeconds);
    OS << (I ? ",\n" : "\n") << "{\"wall_s\": " << Wall
       << ", \"code\": " << Results[I].ExitCode
       << ", \"maxrss_kb\": " << Results[I].MaxRssKb << "}";
  }
  OS << "\n]\n";
  writeFile(flag(Flags, "out"), OS.str());
  return 0;
}

// --- host facts -----------------------------------------------------------

int cmdHost(const std::map<std::string, std::string> &Flags) {
  ViewsDiffOptions Options;
  Options.Jobs = static_cast<unsigned>(std::stoul(flag(Flags, "jobs")));
  unsigned Jobs =
      effectiveDiffJobs(Options, std::stoull(flag(Flags, "entries")));
  // The dispatch tier is a gauge the VM sets when a program runs.
  Telemetry::get().setEnabled(true);
  Expected<CompiledProgram> Prog = compileSource("main { print(1); }");
  if (!Prog)
    die(Prog.error().render());
  runProgram(*Prog);
  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  Telemetry::get().setEnabled(false);
  auto Gauge = Snap.Gauges.find("vm.dispatch_tier");
  std::printf("{\"simd_tier\": %s, \"dispatch_tier\": %s, "
              "\"effective_jobs\": %u}\n",
              jsonQuote(simdTierName(activeSimdTier())).c_str(),
              Gauge == Snap.Gauges.end()
                  ? "null"
                  : jsonQuote(Gauge->second ? "threaded" : "switch").c_str(),
              Jobs);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: perfbench_tool setup|inproc|cli|host --flag value...");
  std::string Sub = Argv[1];
  std::map<std::string, std::string> Flags = parseFlags(Argc, Argv);
  if (Sub == "setup")
    return cmdSetup(Flags);
  if (Sub == "inproc")
    return cmdInProc(Flags);
  if (Sub == "cli")
    return cmdCli(Flags);
  if (Sub == "host")
    return cmdHost(Flags);
  die("unknown subcommand '" + Sub + "'");
}
