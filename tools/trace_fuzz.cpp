//===- tools/trace_fuzz.cpp - Seeded corruption harness for trace readers -===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic corruption fuzzer for the trace reader. Writes a small
/// corpus of base traces (empty, single-entry, generated workloads), then
/// applies seeded mutations —
/// truncation, bit flips, byte overwrites, section-table and header
/// tampering, zeroed ranges, appended garbage, plus the segment framing:
/// trailer fields, footer-directory records, the segment header, and a
/// footer offset whose sum with the footer length wraps around 2^64, plus
/// in-section rewrites of object ids, argument offsets, child-tid rows and
/// object-table class names with the section checksum re-sealed, so the
/// values reach the loader's validation instead of its checksum — and
/// requires every strict read and salvage read of the mutant to return
/// cleanly. Every read that succeeds also builds the trace's view web, the
/// first consumer of the untrusted keys (tids, symbols, locations).
/// A crash, hang, or sanitizer report is the failure mode; any error
/// return is a pass.
///
/// Run under ASan+UBSan in CI:  trace_fuzz --seed 20260807 --iters 200
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "support/Hashing.h"
#include "runtime/Vm.h"
#include "trace/Serialize.h"
#include "views/Views.h"
#include "workload/Generator.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <vector>

using namespace rprism;

namespace {

struct FuzzStats {
  uint64_t Iterations = 0;
  uint64_t StrictOk = 0;
  uint64_t SalvageOk = 0;
  std::map<std::string, uint64_t> ErrorCodes;
};

Trace traceOf(const std::string &Source) {
  auto Prog = compileSource(Source, nullptr);
  if (!Prog) {
    std::fprintf(stderr, "fatal: base program failed to compile: %s\n",
                 Prog.error().render().c_str());
    std::exit(1);
  }
  RunResult Result = runProgram(*Prog, RunOptions());
  if (!Result.Completed) {
    std::fprintf(stderr, "fatal: base program failed to run: %s\n",
                 Result.Error.c_str());
    std::exit(1);
  }
  return std::move(Result.ExecTrace);
}

std::vector<uint8_t> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

bool writeAll(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  return Out.good();
}

/// Section ids of the version-7 layout that hold ids and offsets into
/// other tables (see trace/Serialize.cpp).
constexpr uint32_t SecSelfId = 12, SecTargetId = 15, SecArgOffsets = 17,
                   SecObjects = 23, SecChildTids = 24;

/// A section located through the first segment's table: the byte offsets
/// of its table record and payload, and the payload length.
struct SectionAt {
  size_t Record = 0;
  size_t Payload = 0;
  size_t Length = 0;
};

/// Finds section \p Id in the segment at byte 32, if its record and whole
/// payload lie inside \p Bytes.
bool findSection(const std::vector<uint8_t> &Bytes, uint32_t Id,
                 SectionAt &Out) {
  if (Bytes.size() < 64)
    return false;
  uint32_t NumSections;
  std::memcpy(&NumSections, Bytes.data() + 52, 4);
  for (uint64_t K = 0; K != NumSections; ++K) {
    size_t Record = 64 + 32 * K;
    if (Record + 32 > Bytes.size())
      return false;
    uint32_t RecId;
    uint64_t Offset, Length;
    std::memcpy(&RecId, Bytes.data() + Record, 4);
    std::memcpy(&Offset, Bytes.data() + Record + 8, 8);
    std::memcpy(&Length, Bytes.data() + Record + 16, 8);
    if (RecId != Id)
      continue;
    if (Offset > Bytes.size() - 32 || Length > Bytes.size() - 32 - Offset)
      return false;
    Out = {Record, 32 + Offset, Length};
    return true;
  }
  return false;
}

/// Rewrites one id or offset inside a compact-layout section — a self or
/// target object id, an argument offset, a child-tid row's eid or tid, or
/// an object row's class name — to a boundary or random value, then
/// re-seals the section checksum. Returns false when the file no longer
/// holds the chosen section.
bool tamperCompactSection(std::vector<uint8_t> &Bytes, std::mt19937_64 &Rng) {
  static constexpr uint32_t Ids[] = {SecSelfId, SecTargetId, SecArgOffsets,
                                     SecObjects, SecChildTids};
  uint32_t Id = Ids[Rng() % 5];
  SectionAt Sec;
  if (!findSection(Bytes, Id, Sec) || Sec.Length < 4)
    return false;
  SectionAt Objects;
  uint32_t NumObjects = findSection(Bytes, SecObjects, Objects)
                            ? static_cast<uint32_t>(Objects.Length / 24)
                            : 0;
  // Element stride and the byte of the element to rewrite: object ids and
  // offsets are whole u32 elements; a child-tid row is (eid, tid); an
  // object row's class name sits at byte 12 of its 24.
  size_t Stride = Id == SecObjects ? 24 : Id == SecChildTids ? 8 : 4;
  size_t Elems = Sec.Length / Stride;
  if (Elems == 0)
    return false;
  size_t Elem = static_cast<size_t>(Rng() % Elems);
  size_t At = Sec.Payload + Elem * Stride;
  if (Id == SecObjects)
    At += 12;
  else if (Id == SecChildTids)
    At += 4 * (Rng() % 2);
  uint32_t Old;
  std::memcpy(&Old, Bytes.data() + At, 4);
  const uint32_t Choices[] = {NumObjects,     NumObjects - 1, Old + 1,
                              Old - 1,        0xFFFFFFFFu,    0,
                              static_cast<uint32_t>(Rng())};
  uint32_t New = Choices[Rng() % 7];
  std::memcpy(Bytes.data() + At, &New, 4);
  uint64_t Sum = checksumBytes(Bytes.data() + Sec.Payload, Sec.Length);
  std::memcpy(Bytes.data() + Sec.Record + 24, &Sum, 8);
  return true;
}

/// Applies one seeded mutation to \p Bytes. Fourteen mutation kinds,
/// chosen and parameterised by \p Rng; always leaves at least an empty
/// file. Kinds 9-12 target the segment framing (trailer, footer directory,
/// segment header, wrapping footer offset); the directory and header
/// tampers degrade to a plain bit flip once an earlier mutation has
/// destroyed the trailer. Kind 13 rewrites ids and offsets inside the
/// compact-layout sections (a plain bit flip when the section is gone).
void mutate(std::vector<uint8_t> &Bytes, std::mt19937_64 &Rng) {
  auto Index = [&](size_t Bound) {
    return Bound ? static_cast<size_t>(Rng() % Bound) : 0;
  };
  auto FlipBit = [&] {
    Bytes[Index(Bytes.size())] ^= uint8_t(1u << (Rng() % 8));
  };
  // The footer offset when the file ends in a valid trailer, else 0.
  auto FooterAt = [&]() -> uint64_t {
    if (Bytes.size() < 56)
      return 0;
    uint32_t Magic;
    std::memcpy(&Magic, Bytes.data() + Bytes.size() - 4, 4);
    if (Magic != 0x52505445u) // "RPTE"
      return 0;
    uint64_t Off;
    std::memcpy(&Off, Bytes.data() + Bytes.size() - 24, 8);
    return Off + 32 <= Bytes.size() ? Off : 0;
  };
  if (Bytes.empty()) {
    Bytes.push_back(static_cast<uint8_t>(Rng()));
    return;
  }
  switch (Rng() % 14) {
  case 0: // Truncate to a random prefix (possibly empty).
    Bytes.resize(Index(Bytes.size() + 1));
    break;
  case 1: // Flip a single bit.
    Bytes[Index(Bytes.size())] ^= uint8_t(1u << (Rng() % 8));
    break;
  case 2: { // Flip a burst of bits across a small window.
    size_t At = Index(Bytes.size());
    size_t Len = 1 + Index(16);
    for (size_t I = At; I != Bytes.size() && I != At + Len; ++I)
      Bytes[I] ^= static_cast<uint8_t>(Rng());
    break;
  }
  case 3: // Overwrite one byte with a boundary-ish value.
    Bytes[Index(Bytes.size())] =
        static_cast<uint8_t>(std::initializer_list<int>{0, 1, 0x7f, 0x80, 0xff}
                                 .begin()[Rng() % 5]);
    break;
  case 4: { // Tamper with a record of the first segment's section table
            // (32-byte file header, 32-byte segment header, then 32-byte
            // records: id/pad/offset/length/checksum).
    if (Bytes.size() < 96)
      break;
    uint32_t NumSections;
    std::memcpy(&NumSections, Bytes.data() + 52, 4);
    size_t Records = std::min<size_t>(NumSections, (Bytes.size() - 64) / 32);
    if (!Records)
      break;
    size_t Record = 64 + 32 * Index(Records);
    size_t Field = (Rng() % 4) * 8; // id+pad / offset / length / checksum
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + Record + Field, &Garbage,
                std::min<size_t>(8, Bytes.size() - Record - Field));
    break;
  }
  case 5: { // Tamper with the file header: magic, version, flags, or the
            // segment-target entry count.
    size_t Field = 4 * (Rng() % 4);
    if (Bytes.size() < Field + 4)
      break;
    uint32_t Garbage = static_cast<uint32_t>(Rng());
    std::memcpy(Bytes.data() + Field, &Garbage, 4);
    break;
  }
  case 6: { // Zero a range.
    size_t At = Index(Bytes.size());
    size_t Len = 1 + Index(64);
    std::memset(Bytes.data() + At, 0,
                std::min(Len, Bytes.size() - At));
    break;
  }
  case 7: { // Append garbage.
    size_t Len = 1 + Index(64);
    for (size_t I = 0; I != Len; ++I)
      Bytes.push_back(static_cast<uint8_t>(Rng()));
    break;
  }
  case 8: { // Swap two windows of the file.
    size_t A = Index(Bytes.size()), B = Index(Bytes.size());
    size_t Len = 1 + Index(32);
    for (size_t I = 0; I != Len; ++I) {
      if (A + I >= Bytes.size() || B + I >= Bytes.size())
        break;
      std::swap(Bytes[A + I], Bytes[B + I]);
    }
    break;
  }
  case 9: { // Trailer tamper: footer offset, checksum, count, or magic.
    if (Bytes.size() < 56) {
      FlipBit();
      break;
    }
    size_t Trailer = Bytes.size() - 24;
    size_t Field = (Rng() % 3) * 8; // offset / checksum / count+magic
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + Trailer + Field, &Garbage, 8);
    break;
  }
  case 10: { // Footer-directory record tamper.
    uint64_t Footer = FooterAt();
    if (!Footer) {
      FlipBit();
      break;
    }
    uint32_t NumSegments;
    std::memcpy(&NumSegments, Bytes.data() + Footer + 4, 4);
    size_t Records = Bytes.size() > Footer + 8
                         ? std::min<size_t>(NumSegments,
                                            (Bytes.size() - Footer - 8) / 32)
                         : 0;
    if (!Records) {
      FlipBit();
      break;
    }
    size_t Record = Footer + 8 + 32 * Index(Records);
    size_t Field = (Rng() % 4) * 8; // offset / digests / eid range
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + Record + Field, &Garbage, 8);
    break;
  }
  case 11: { // Segment-header tamper (the segment lives at byte 32):
             // magic/index, begin-eid, counts, or payload size — the last
             // one can run the payload past the end of the file.
    uint64_t Footer = FooterAt();
    if (!Footer || Footer < 64) {
      FlipBit();
      break;
    }
    size_t Field = (Rng() % 4) * 8;
    uint64_t Garbage = Rng();
    std::memcpy(Bytes.data() + 32 + Field, &Garbage, 8);
    break;
  }
  case 12: { // Wrapping trailer: a huge directory count and a footer
             // offset chosen so that offset + footer length wraps around
             // 2^64 onto a point inside the file — by default the trailer
             // itself, where a well-formed footer ends.
    if (Bytes.size() < 24) {
      FlipBit();
      break;
    }
    size_t Trailer = Bytes.size() - 24;
    uint64_t Target = Rng() % 2 ? Trailer : Index(Bytes.size() + 1);
    uint32_t NumSegments = 0xFFFFFFFFu - static_cast<uint32_t>(Index(1024));
    uint64_t FooterBytes = 8 + uint64_t{NumSegments} * 32;
    uint64_t Offset = Target - FooterBytes; // Wraps: FooterBytes > Target.
    uint32_t Magic = 0x52505445u; // "RPTE", so the trailer parses.
    std::memcpy(Bytes.data() + Trailer, &Offset, 8);
    std::memcpy(Bytes.data() + Trailer + 16, &NumSegments, 4);
    std::memcpy(Bytes.data() + Trailer + 20, &Magic, 4);
    break;
  }
  case 13: // Re-sealed id/offset rewrite inside a compact-layout section.
    if (!tamperCompactSection(Bytes, Rng))
      FlipBit();
    break;
  }
}

/// Exercises every read surface on one mutant file. The contract under
/// test is purely "no crash, no hang, no sanitizer report": errors are
/// counted, successes are walked end to end to force column access.
void exercise(const std::string &Path, FuzzStats &Stats) {
  for (bool Salvage : {false, true}) {
    auto Strings = std::make_shared<StringInterner>();
    ReadOptions Options;
    Options.Salvage = Salvage;
    TraceReadReport Report;
    Options.Report = &Report;
    Expected<Trace> Loaded = readTrace(Path, Strings, Options);
    if (!Loaded) {
      Stats.ErrorCodes[Loaded.error().Code.empty() ? "<uncoded>"
                                                   : Loaded.error().Code]++;
      continue;
    }
    (Salvage ? Stats.SalvageOk : Stats.StrictOk)++;
    // Touch everything a reader would: render each entry, walk threads,
    // build the view web.
    const Trace &T = *Loaded;
    for (uint32_t I = 0; I != T.size(); ++I)
      (void)T.renderEntry(I);
    for (const ThreadInfo &Thread : T.Threads)
      (void)Strings->text(Thread.EntryMethod);
    ViewWeb Web(T);
    for (uint32_t I = 0; I != T.size(); ++I)
      (void)Web.viewsOf(I);
  }
}

} // namespace

int main(int Argc, char **Argv) {
  uint64_t Seed = 20260807;
  uint64_t Iters = 200;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--seed" && I + 1 < Argc)
      Seed = std::strtoull(Argv[++I], nullptr, 10);
    else if (Arg == "--iters" && I + 1 < Argc)
      Iters = std::strtoull(Argv[++I], nullptr, 10);
    else {
      std::fprintf(stderr, "usage: trace_fuzz [--seed N] [--iters N]\n");
      return 2;
    }
  }

  // Base corpus: a spread of trace shapes, including the degenerate ones
  // (empty, single entry).
  GeneratorOptions Small;
  Small.NumClasses = 2;
  Small.OuterIters = 3;
  Small.Seed = 7;
  GeneratorOptions Threaded;
  Threaded.NumClasses = 3;
  Threaded.OuterIters = 8;
  Threaded.NumThreads = 2;
  Threaded.Seed = 11;
  std::vector<Trace> Corpus;
  Trace Empty;
  Empty.Strings = std::make_shared<StringInterner>();
  Empty.Name = "empty";
  Corpus.push_back(std::move(Empty));
  Corpus.push_back(traceOf("class A { } main { var a = new A(); }"));
  Corpus.push_back(traceOf(generateProgram(Small)));
  Corpus.push_back(traceOf(generateProgram(Threaded)));

  std::string Dir = "/tmp/rprism_fuzz_" + std::to_string(::getpid());
  std::string Mutant = Dir + "_mutant";
  std::vector<std::vector<uint8_t>> Bases;
  for (size_t I = 0; I != Corpus.size(); ++I) {
    Corpus[I].computeFingerprints();
    std::string Path = Dir + "_base" + std::to_string(I);
    if (!writeTrace(Corpus[I], Path)) {
      std::fprintf(stderr, "fatal: cannot write base trace %zu\n", I);
      return 1;
    }
    Bases.push_back(readAll(Path));
    std::remove(Path.c_str());
  }

  std::mt19937_64 Rng(Seed);
  FuzzStats Stats;
  for (uint64_t Iter = 0; Iter != Iters; ++Iter) {
    std::vector<uint8_t> Bytes = Bases[Rng() % Bases.size()];
    // One to three stacked mutations per iteration.
    uint64_t Rounds = 1 + Rng() % 3;
    for (uint64_t R = 0; R != Rounds; ++R)
      mutate(Bytes, Rng);
    if (!writeAll(Mutant, Bytes)) {
      std::fprintf(stderr, "fatal: cannot write mutant file\n");
      return 1;
    }
    exercise(Mutant, Stats);
    Stats.Iterations++;
  }
  std::remove(Mutant.c_str());

  std::printf("trace_fuzz: %llu iterations over %zu base files (seed %llu)\n",
              static_cast<unsigned long long>(Stats.Iterations), Bases.size(),
              static_cast<unsigned long long>(Seed));
  std::printf("  strict reads ok:  %llu\n",
              static_cast<unsigned long long>(Stats.StrictOk));
  std::printf("  salvage reads ok: %llu\n",
              static_cast<unsigned long long>(Stats.SalvageOk));
  std::printf("  error codes seen:\n");
  for (const auto &KV : Stats.ErrorCodes)
    std::printf("    %-24s %llu\n", KV.first.c_str(),
                static_cast<unsigned long long>(KV.second));
  return 0;
}
