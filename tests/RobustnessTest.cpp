//===- tests/RobustnessTest.cpp - Fault injection and degradation tests ---===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the ingestion hardening contracts (docs/ROBUSTNESS.md):
///
///   1. The fault injector is deterministic per seed and free when
///      disarmed.
///   2. Every section of a one-segment file survives the corruption
///      matrix — truncation, payload bit flips, checksum-record tampering,
///      oversized lengths — with a typed Corrupt error, never a crash.
///      Hostile values that checksums cannot catch (out-of-range thread
///      ids, huge object locations) are refused or handled in bounded
///      memory.
///   3. The degradation ladder: transient I/O retries and pool-dispatch
///      stalls — each leaves results correct and increments its
///      `robust.*` counter.
///   4. Salvage mode recovers a byte-identical entry prefix from damaged
///      files, counts what it could not recover, and refuses when the side
///      tables are gone.
///
//===----------------------------------------------------------------------===//

#include "diff/ViewsDiff.h"
#include "robustness/FaultInjector.h"
#include "robustness/Retry.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "trace/Serialize.h"
#include "trace/TraceError.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <vector>

#include <sys/resource.h>

using namespace rprism;

namespace {

Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings = nullptr) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog, RunOptions());
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

/// A generated workload with threads, arguments, and a few hundred
/// entries: every section comes out nonempty.
Trace workloadTrace(std::shared_ptr<StringInterner> Strings) {
  GeneratorOptions G;
  G.NumClasses = 3;
  G.OuterIters = 12;
  G.NumThreads = 2;
  G.Seed = 42;
  return traceOf(generateProgram(G), std::move(Strings));
}

std::string tempPath(const std::string &Tag) {
  return "/tmp/rprism_robust_" + Tag + "_" + std::to_string(::getpid());
}

std::vector<uint8_t> readAll(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(In),
                              std::istreambuf_iterator<char>());
}

void writeAll(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Counter window: counters are only recorded while telemetry is enabled.
struct TelemetryWindow {
  TelemetryWindow() {
    Telemetry::get().reset();
    Telemetry::get().setEnabled(true);
  }
  ~TelemetryWindow() {
    Telemetry::get().setEnabled(false);
    Telemetry::get().reset();
  }
  uint64_t counter(const char *Name) const {
    return Telemetry::get().snapshot().counter(Name);
  }
};

template <typename T> T loadLE(const uint8_t *P) {
  T V;
  std::memcpy(&V, P, sizeof(T));
  return V;
}

/// One section-table record, as parsed back out of a written file.
struct SectionRec {
  uint32_t Id = 0;
  uint64_t Offset = 0;  ///< Absolute offset of the payload.
  uint64_t Length = 0;
  size_t RecordPos = 0; ///< Byte offset of the 32-byte record itself.
};

/// The section table of a one-segment file, straight off the written
/// bytes (independent of the reader under test). The segment header sits
/// right after the 32-byte file header, and payload offsets in its table
/// are relative to it; the returned ones are absolute.
std::vector<SectionRec> sectionTable(const std::vector<uint8_t> &Bytes) {
  constexpr size_t SegOffset = 32;
  std::vector<SectionRec> Table;
  if (Bytes.size() < SegOffset + 32)
    return Table;
  uint32_t NumSections = loadLE<uint32_t>(Bytes.data() + SegOffset + 20);
  for (uint32_t I = 0; I != NumSections; ++I) {
    size_t Pos = SegOffset + 32 + size_t{I} * 32;
    if (Pos + 32 > Bytes.size())
      break;
    SectionRec R;
    R.Id = loadLE<uint32_t>(Bytes.data() + Pos);
    R.Offset = SegOffset + loadLE<uint64_t>(Bytes.data() + Pos + 8);
    R.Length = loadLE<uint64_t>(Bytes.data() + Pos + 16);
    R.RecordPos = Pos;
    Table.push_back(R);
  }
  return Table;
}

/// The record for section \p Id in \p Table (Id 0 when absent).
SectionRec findSection(const std::vector<SectionRec> &Table, uint32_t Id) {
  auto It = std::find_if(Table.begin(), Table.end(),
                         [Id](const SectionRec &R) { return R.Id == Id; });
  return It == Table.end() ? SectionRec() : *It;
}

//===----------------------------------------------------------------------===//
// FaultInjector
//===----------------------------------------------------------------------===//

TEST(FaultInjector, DisarmedHooksAreInertAndCountNothing) {
  FaultInjector &FI = FaultInjector::get();
  ASSERT_FALSE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::fire(FaultSite::FileOpen));
  uint8_t Byte = 0xab;
  EXPECT_FALSE(FaultInjector::corruptByte(FaultSite::FileRead, &Byte, 1));
  EXPECT_EQ(Byte, 0xab);
  FaultInjector::maybeStall(FaultSite::PoolDispatch);
  // Arming clears counts, and the disarmed calls above left none behind.
  ScopedFaultInjection Arm(1);
  for (unsigned S = 0; S != NumFaultSites; ++S)
    EXPECT_EQ(FI.occurrences(static_cast<FaultSite>(S)), 0u)
        << faultSiteName(static_cast<FaultSite>(S));
}

TEST(FaultInjector, SameSeedReplaysTheSameSchedule) {
  auto Schedule = [](uint64_t Seed) {
    ScopedFaultInjection Arm(Seed);
    FaultInjector::get().configure(FaultSite::FileRead, 0.5);
    std::vector<bool> Fired;
    for (int I = 0; I != 64; ++I)
      Fired.push_back(FaultInjector::fire(FaultSite::FileRead));
    return Fired;
  };
  std::vector<bool> A = Schedule(123);
  std::vector<bool> B = Schedule(123);
  std::vector<bool> C = Schedule(456);
  EXPECT_EQ(A, B) << "same seed must replay the same fault schedule";
  EXPECT_NE(A, C) << "different seeds should differ (64 draws at p=0.5)";
  // p=0.5 over 64 draws: both outcomes occur.
  EXPECT_NE(std::count(A.begin(), A.end(), true), 0);
  EXPECT_NE(std::count(A.begin(), A.end(), false), 0);
}

TEST(FaultInjector, OneShotFiresExactlyThatOccurrence) {
  ScopedFaultInjection Arm(1);
  FaultInjector &FI = FaultInjector::get();
  FI.configure(FaultSite::FileOpen, 0.0, /*OneShotAt=*/2);
  std::vector<bool> Fired;
  for (int I = 0; I != 8; ++I)
    Fired.push_back(FaultInjector::fire(FaultSite::FileOpen));
  std::vector<bool> Expect = {false, false, true,  false,
                              false, false, false, false};
  EXPECT_EQ(Fired, Expect);
  EXPECT_EQ(FI.occurrences(FaultSite::FileOpen), 8u);
  EXPECT_EQ(FI.injected(FaultSite::FileOpen), 1u);
}

//===----------------------------------------------------------------------===//
// Corruption matrix: every section of a one-segment file x every mutation
//===----------------------------------------------------------------------===//

TEST(CorruptionMatrix, EverySectionEveryMutation) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  ASSERT_GT(T.size(), 0u);
  std::string Base = tempPath("matrix_base");
  ASSERT_TRUE(writeTrace(T, Base));
  std::vector<uint8_t> Good = readAll(Base);
  std::vector<SectionRec> Table = sectionTable(Good);
  ASSERT_GE(Table.size(), 16u) << "expected all sections present";

  std::string Mutant = tempPath("matrix_mut");
  enum Mutation { Truncate, FlipPayload, FlipChecksum, OversizeLength };
  for (const SectionRec &Sec : Table) {
    for (Mutation M : {Truncate, FlipPayload, FlipChecksum, OversizeLength}) {
      if ((M == Truncate || M == FlipPayload) && Sec.Length == 0)
        continue; // Nothing to cut or flip.
      std::vector<uint8_t> Bytes = Good;
      switch (M) {
      case Truncate:
        Bytes.resize(static_cast<size_t>(Sec.Offset + Sec.Length / 2));
        break;
      case FlipPayload:
        Bytes[static_cast<size_t>(Sec.Offset + Sec.Length / 2)] ^= 0x40;
        break;
      case FlipChecksum:
        Bytes[Sec.RecordPos + 24] ^= 0x01; // Checksum field of the record.
        break;
      case OversizeLength: {
        uint64_t Huge = Good.size(); // Offset + Huge always overruns.
        std::memcpy(Bytes.data() + Sec.RecordPos + 16, &Huge, 8);
        break;
      }
      }
      writeAll(Mutant, Bytes);
      SCOPED_TRACE("section " + std::to_string(Sec.Id) + " mutation " +
                   std::to_string(M));
      Expected<Trace> Loaded = readTrace(Mutant, nullptr);
      // A typed Corrupt error, never a crash and never a partially-valid
      // trace.
      ASSERT_FALSE(bool(Loaded));
      EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt)
          << Loaded.error().render();
      EXPECT_FALSE(Loaded.error().Code.empty());
    }
  }
  std::remove(Base.c_str());
  std::remove(Mutant.c_str());
}

TEST(CorruptionMatrix, WrappingFooterOffsetIsTypedNotACrash) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf("class A { } main { var a = new A(); }", Strings);
  std::string Path = tempPath("wrap_trailer");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  ASSERT_GE(Bytes.size(), 64u);
  // A hostile trailer: the largest directory count, and a footer offset
  // chosen so that offset + footer length wraps around 2^64 to land
  // exactly on the trailer. Any bound checked as `offset + length` passes
  // and the footer then points far outside the file.
  uint32_t NumSegments = 0xFFFFFFFFu;
  uint64_t FooterBytes = 8 + uint64_t{NumSegments} * 32;
  size_t TrailerAt = Bytes.size() - 24;
  uint64_t FooterOffset = uint64_t{TrailerAt} - FooterBytes; // Wraps.
  ASSERT_EQ(FooterOffset + FooterBytes, uint64_t{TrailerAt});
  ASSERT_GT(FooterOffset, uint64_t{Bytes.size()});
  std::memcpy(Bytes.data() + TrailerAt, &FooterOffset, 8);
  std::memcpy(Bytes.data() + TrailerAt + 16, &NumSegments, 4);
  writeAll(Path, Bytes);

  Expected<Trace> Strict = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Strict.error().Code, "trace.section");
  // The segment itself is intact, so salvage recovers every entry.
  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
  EXPECT_EQ(Salvaged->size(), T.size());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Hostile values the checksums cannot catch
//===----------------------------------------------------------------------===//

/// The trace of a small program with every object location rewritten to
/// \p Loc minus the original one. The VM never hands out such locations,
/// but nothing in a file rules them out: a location is not bounded by the
/// entry count, and 0xffffffff is NoLoc yet still a real object (it has a
/// class).
Trace relocatedTrace(uint32_t Loc) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; } Int get() { return this.x; } }
    main { var a = new A(5); var b = new A(6); print(a.get() + b.get()); }
  )");
  ObjRepr *Objects = T.Objects.mutData();
  for (uint32_t Id = 0; Id != T.Objects.size(); ++Id)
    if (!Objects[Id].isNone())
      Objects[Id].Loc = Loc - Objects[Id].Loc;
  return T;
}

/// Peak resident set of this process so far, in KiB.
long peakRssKb() {
  struct rusage Usage;
  ::getrusage(RUSAGE_SELF, &Usage);
  return Usage.ru_maxrss;
}

void expectHugeLocationDiffsCleanly(uint32_t Loc) {
  std::string Path = tempPath("hugeloc");
  ASSERT_TRUE(writeTrace(relocatedTrace(Loc), Path));
  long PeakBefore = peakRssKb();
  auto Shared = std::make_shared<StringInterner>();
  Expected<Trace> L = readTrace(Path, Shared);
  Expected<Trace> R = readTrace(Path, Shared);
  std::remove(Path.c_str());
  ASSERT_TRUE(bool(L)) << L.error().render();
  ASSERT_TRUE(bool(R)) << R.error().render();
  ViewWeb Web(*L);
  ASSERT_NE(Web.targetObjectView(Loc), nullptr);
  EXPECT_EQ(Web.numTargetObjectViews(), 2u);
  DiffResult Result = viewsDiff(*L, *R, ViewsDiffOptions());
  EXPECT_EQ(Result.numDiffs(), 0u);
  // A key table sized by the location would take 8 GiB here.
  EXPECT_LT(peakRssKb() - PeakBefore, 256 * 1024);
}

TEST(HostileValues, LargestLocationDiffsCleanly) {
  expectHugeLocationDiffsCleanly(0xffffffffu);
}

TEST(HostileValues, HugeLocationDiffsInBoundedMemory) {
  expectHugeLocationDiffsCleanly(0x7fffffffu);
}

/// A one-thread trace of \p N field reads, each on its own object of one
/// class whose value hash is \p Hash(I): N target-object views whose
/// correlation keys the file alone decides.
template <typename HashFn>
Trace objectFloodTrace(const std::shared_ptr<StringInterner> &Strings,
                       uint32_t N, HashFn Hash) {
  Trace T;
  T.Strings = Strings;
  ThreadInfo Main;
  Main.EntryMethod = Strings->intern("main");
  T.Threads.push_back(Main);
  Symbol Class = Strings->intern("Flood");
  Symbol Field = Strings->intern("x");
  T.reserveEntries(N);
  for (uint32_t I = 0; I != N; ++I) {
    TraceEntry E;
    E.Eid = I;
    E.Method = Main.EntryMethod;
    E.Ev.Kind = EventKind::FieldGet;
    E.Ev.Name = Field;
    E.Ev.Target.ValueHash = Hash(I);
    E.Ev.Target.Loc = I;
    E.Ev.Target.ClassName = Class;
    E.Ev.Target.CreationSeq = I;
    E.Ev.Target.HasRepr = 1;
    T.append(E);
  }
  return T;
}

/// Correlates two 200K-object floods and returns the wall seconds taken;
/// every left object must find its partner (by value or by creation seq).
template <typename HashFn> double correlateFloodSeconds(HashFn Hash) {
  constexpr uint32_t N = 200000;
  auto Strings = std::make_shared<StringInterner>();
  Trace L = objectFloodTrace(Strings, N, Hash);
  Trace R = objectFloodTrace(Strings, N, Hash);
  ViewWeb LW(L);
  ViewWeb RW(R);
  EXPECT_EQ(LW.numTargetObjectViews(), N);
  auto Start = std::chrono::steady_clock::now();
  ViewCorrelation X(LW, RW);
  double Seconds = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();
  for (uint32_t Loc = 0; Loc < N; Loc += 997) {
    int32_t Partner = X.rightOf(LW.targetObjectView(Loc)->Id);
    EXPECT_EQ(Partner, static_cast<int32_t>(RW.targetObjectView(Loc)->Id))
        << "object " << Loc;
  }
  return Seconds;
}

TEST(HostileValues, OneSharedCorrelationKeyJoinsInBoundedTime) {
  // Every object carries the same (class, hash) key: the right table holds
  // one key, and all but the first left object fall through to creation
  // sequence numbers. A probe that walked the equal keys would be
  // quadratic.
  EXPECT_LT(correlateFloodSeconds([](uint32_t) { return 0x5eedull; }), 1.0);
}

TEST(HostileValues, KeysDifferingAboveBit32JoinInBoundedTime) {
  // Keys equal in their low 32 bits: a table indexed by the low word
  // would collide on every insert.
  EXPECT_LT(correlateFloodSeconds(
                [](uint32_t I) { return uint64_t{I} << 32 | 0x5eedull; }),
            1.0);
}

TEST(HostileValues, ThreadIdsOutsideTheThreadTableAreCorrupt) {
  Trace T = traceOf("class A { } main { var a = new A(); var b = new A(); }");
  ASSERT_EQ(T.Threads.size(), 1u);
  ASSERT_GT(T.size(), 1u);
  std::string Path = tempPath("badtid");
  auto ExpectCorrupt = [&](const Trace &Bad, const char *What) {
    SCOPED_TRACE(What);
    ASSERT_TRUE(writeTrace(Bad, Path));
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded));
    EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt);
    EXPECT_EQ(Loaded.error().Code, "trace.section");
  };

  // An entry on a thread the table does not list.
  Trace Entry = T;
  Entry.Tids.mutData()[1] = 1;
  ExpectCorrupt(Entry, "entry tid");

  // A thread record that is not the record of its own index.
  Trace Record = T;
  Record.Threads[0].Tid = 3;
  ExpectCorrupt(Record, "thread record");
  std::remove(Path.c_str());
}


/// Loads \p Path strictly and under salvage. The strict read must fail
/// with a typed corrupt-section error. The salvage read must either fail
/// typed (trace.unsalvageable) or return a prefix of \p Orig that renders
/// entry for entry like it; returns that prefix's size (0 when refused).
size_t expectCorruptOrValidPrefix(const std::string &Path, const Trace &Orig,
                                  const char *StrictCode = "trace.section") {
  Expected<Trace> Strict = readTrace(Path, nullptr);
  EXPECT_FALSE(bool(Strict));
  if (Strict)
    return 0;
  EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Strict.error().Code, StrictCode) << Strict.error().render();
  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, nullptr, Options);
  if (!Salvaged) {
    EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
    return 0;
  }
  EXPECT_LE(Salvaged->size(), Orig.size());
  for (uint32_t I = 0; I != Salvaged->size(); ++I)
    EXPECT_EQ(Salvaged->renderEntry(I), Orig.renderEntry(I)) << I;
  ViewWeb Web(*Salvaged); // The first consumer of the ids it kept.
  return Salvaged->size();
}

/// Rewrites section \p Id of the file at \p Path through \p Patch (a
/// function of the payload bytes) and re-seals its checksum, so the
/// change reaches the loader's validation instead of its checksum.
template <typename PatchFn>
void patchSection(const std::string &Path, uint32_t Id, PatchFn Patch) {
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Sec = findSection(sectionTable(Bytes), Id);
  ASSERT_EQ(Sec.Id, Id);
  uint8_t *Payload = Bytes.data() + Sec.Offset;
  Patch(Payload, static_cast<size_t>(Sec.Length));
  uint64_t Sum = checksumBytes(Payload, static_cast<size_t>(Sec.Length));
  std::memcpy(Bytes.data() + Sec.RecordPos + 24, &Sum, 8);
  writeAll(Path, Bytes);
}

TEST(HostileValues, CompactLayoutIdsAndOffsetsAreValidated) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  ASSERT_GT(T.size(), 100u);
  ASSERT_FALSE(T.ChildTidTable.empty());
  std::string Path = tempPath("compact");
  uint32_t Mid = static_cast<uint32_t>(T.size() / 2);
  auto WriteDamaged = [&](auto Damage) {
    Trace Bad = T;
    Damage(Bad);
    ASSERT_TRUE(writeTrace(Bad, Path));
  };

  {
    SCOPED_TRACE("target id past the object table");
    WriteDamaged([&](Trace &B) {
      B.TargetIds.mut(Mid) = static_cast<uint32_t>(B.Objects.size());
    });
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, T), Mid);
  }
  {
    SCOPED_TRACE("self id 0xffffffff");
    WriteDamaged([&](Trace &B) { B.SelfIds.mut(Mid) = ~0u; });
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, T), Mid);
  }
  {
    SCOPED_TRACE("non-monotone argument offsets");
    uint32_t WithArgs = Mid;
    while (WithArgs != T.size() && T.numArgs(WithArgs) == 0)
      ++WithArgs;
    ASSERT_LT(WithArgs, T.size());
    WriteDamaged([&](Trace &B) {
      B.ArgOffsets.mut(WithArgs) = B.ArgOffsets[WithArgs + 1] + 1;
    });
    size_t Kept = expectCorruptOrValidPrefix(Path, T);
    EXPECT_GT(Kept, 0u);
    EXPECT_LE(Kept, WithArgs);
  }
  {
    SCOPED_TRACE("last offset past the pool");
    WriteDamaged([&](Trace &B) { ++B.ArgOffsets.mut(B.size()); });
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, T), T.size() - 1);
  }
  {
    SCOPED_TRACE("last offset short of the pool");
    // Every offset clamped to one below the pool size: each slice still
    // lies in the pool, but the last one no longer ends where the pool
    // does. Salvage keeps every entry, with the slices the file states.
    uint32_t Short = T.ArgOffsets[T.size()] - 1;
    auto Clamp = [Short](uint8_t *P, size_t Len) {
      for (size_t At = 0; At + 4 <= Len; At += 4) {
        uint32_t Off;
        std::memcpy(&Off, P + At, 4);
        Off = std::min(Off, Short);
        std::memcpy(P + At, &Off, 4);
      }
    };
    Trace Clamped = T;
    Clamp(reinterpret_cast<uint8_t *>(Clamped.ArgOffsets.mutData()),
          Clamped.ArgOffsets.byteSize());
    ASSERT_TRUE(writeTrace(T, Path));
    patchSection(Path, 17, Clamp);
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, Clamped), T.size());
  }
  {
    SCOPED_TRACE("child tid past the thread table");
    uint32_t ForkEid = T.ChildTidTable[0].Eid;
    WriteDamaged([&](Trace &B) {
      B.ChildTidTable.mut(0).Tid = static_cast<uint32_t>(B.Threads.size());
    });
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, T), ForkEid);
  }
  {
    SCOPED_TRACE("child-tid row on an entry that is no fork or end");
    ASSERT_NE(T.ChildTidTable[0].Eid, 0u);
    WriteDamaged([&](Trace &B) { B.ChildTidTable.mut(0).Eid = 0; });
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, T), 0u);
  }
  {
    SCOPED_TRACE("object row naming no string");
    WriteDamaged([&](Trace &B) {
      B.Objects.mut(B.Objects.size() - 1).ClassName = Symbol{~0u};
    });
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, T), 0u);
  }
  // An entry-less file has one offset and no entry to validate it: a
  // salvage read must neither trust it nor read a missing section. The
  // busy interner makes the load copy (and remap) what it keeps.
  auto ExpectEmptySalvage = [&](const Trace &Empty) {
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, Empty), 0u);
    auto Busy = std::make_shared<StringInterner>();
    Busy->intern("occupying-symbol-id-one");
    ReadOptions Options;
    Options.Salvage = true;
    Expected<Trace> Salvaged = readTrace(Path, Busy, Options);
    ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
    EXPECT_EQ(Salvaged->size(), 0u);
    ASSERT_EQ(Salvaged->ArgOffsets.size(), 1u);
    EXPECT_EQ(Salvaged->ArgOffsets[0], 0u);
    EXPECT_TRUE(Salvaged->ArgPool.empty());
  };
  Trace Empty;
  Empty.Strings = Strings;
  {
    SCOPED_TRACE("entry-less file without an offsets section");
    ASSERT_TRUE(writeTrace(Empty, Path));
    std::vector<uint8_t> Bytes = readAll(Path);
    SectionRec Offsets = findSection(sectionTable(Bytes), 17);
    ASSERT_EQ(Offsets.Id, 17u);
    uint32_t Unknown = 99; // Readers skip ids they do not know.
    std::memcpy(Bytes.data() + Offsets.RecordPos, &Unknown, 4);
    writeAll(Path, Bytes);
    ExpectEmptySalvage(Empty);
  }
  {
    SCOPED_TRACE("entry-less file whose one offset is past the pool");
    ASSERT_TRUE(writeTrace(Empty, Path));
    patchSection(Path, 17, [](uint8_t *P, size_t Len) {
      ASSERT_EQ(Len, 4u);
      uint32_t Huge = ~0u;
      std::memcpy(P, &Huge, 4);
    });
    ExpectEmptySalvage(Empty);
  }
  {
    SCOPED_TRACE("damaged object table");
    ASSERT_TRUE(writeTrace(T, Path));
    std::vector<uint8_t> Bytes = readAll(Path);
    SectionRec Objects = findSection(sectionTable(Bytes), 23);
    ASSERT_GT(Objects.Length, 0u);
    Bytes[static_cast<size_t>(Objects.Offset + Objects.Length / 2)] ^= 0x20;
    writeAll(Path, Bytes);
    EXPECT_EQ(expectCorruptOrValidPrefix(Path, T, "trace.section_checksum"),
              0u);
  }
  std::remove(Path.c_str());
}

TEST(CorruptionMatrix, SectionOffsetFarPastTheFileIsNeverDereferenced) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf("class A { } main { var a = new A(); }", Strings);
  std::string Path = tempPath("far_section");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  std::vector<SectionRec> Table = sectionTable(Bytes);
  SectionRec Name = findSection(Table, 1);
  ASSERT_EQ(Name.Id, 1u);
  // The segment header declares a payload of nearly 2^64 bytes (a
  // truncated segment, as far as the reader can tell), and the empty name
  // section's record points 15/16 of the way there: inside the declared
  // extent, but adding it to the mapping's address would wrap.
  uint64_t PayloadBytes = ~uint64_t{0} - 0xff;
  uint64_t FarOffset = 0xF000000000000000ull;
  uint64_t Zero = 0;
  std::memcpy(Bytes.data() + 32 + 24, &PayloadBytes, 8);
  std::memcpy(Bytes.data() + Name.RecordPos + 8, &FarOffset, 8);
  std::memcpy(Bytes.data() + Name.RecordPos + 16, &Zero, 8);
  writeAll(Path, Bytes);

  Expected<Trace> Strict = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);
  // Salvage reads the segment in place; every other section is intact.
  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
  EXPECT_EQ(Salvaged->size(), T.size());
  EXPECT_TRUE(Salvaged->Name.empty());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Degradation ladder: I/O retry, pool-dispatch stalls
//===----------------------------------------------------------------------===//

TEST(DegradationLadder, TransientOpenFailureIsRetried) {
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("retry_open");
  ASSERT_TRUE(writeTrace(T, Path));
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(7);
    // Fail exactly the first open; the bounded retry must recover.
    FaultInjector::get().configure(FaultSite::FileOpen, 0.0, /*OneShotAt=*/0);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_EQ(Loaded->size(), T.size());
  }
  EXPECT_GE(W.counter("robust.io_retry"), 1u);
  std::remove(Path.c_str());
}

TEST(DegradationLadder, PersistentOpenFailureIsTypedIoError) {
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("eio");
  ASSERT_TRUE(writeTrace(T, Path));
  ScopedFaultInjection Arm(7);
  FaultInjector::get().configure(FaultSite::FileOpen, 1.0);
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Class, ErrClass::Io);
  EXPECT_EQ(Loaded.error().Code, "trace.open");
  std::remove(Path.c_str());
}

TEST(DegradationLadder, MmapFailureFallsBackToArenaAndShortReadRetries) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("arena");
  ASSERT_TRUE(writeTrace(T, Path));
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(11);
    // Every mmap fails -> arena path; the first arena read comes up short
    // -> one retry succeeds.
    FaultInjector::get().configure(FaultSite::FileMmap, 1.0);
    FaultInjector::get().configure(FaultSite::FileRead, 0.0, /*OneShotAt=*/0);
    Expected<Trace> Loaded = readTrace(Path, Strings);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    ASSERT_EQ(Loaded->size(), T.size());
    for (uint32_t I = 0; I != Loaded->size(); ++I)
      ASSERT_EQ(Loaded->renderEntry(I), T.renderEntry(I)) << I;
  }
  EXPECT_GE(W.counter("robust.io_retry"), 1u);
  EXPECT_EQ(W.counter("load.mmap"), 0u) << "mmap should have been denied";
  std::remove(Path.c_str());
}

TEST(DegradationLadder, InFlightBitFlipIsCaughtByChecksums) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("bitflip");
  ASSERT_TRUE(writeTrace(T, Path));
  // The arena-read path corrupts one seeded bit after the read (occurrence
  // 1 of the FileRead site is the corruptByte call). Nearly every byte of
  // a trace file is covered by a section checksum or validated header/table
  // field, so across seeds the flip must be either *detected* (typed
  // Corrupt error) or provably harmless (the loaded trace is identical) —
  // never a crash, never silent data damage.
  unsigned Detected = 0;
  for (uint64_t Seed = 1; Seed <= 8; ++Seed) {
    ScopedFaultInjection Arm(Seed);
    FaultInjector::get().configure(FaultSite::FileMmap, 1.0);
    FaultInjector::get().configure(FaultSite::FileRead, 0.0, /*OneShotAt=*/1);
    Expected<Trace> Loaded = readTrace(Path, Strings);
    if (!Loaded) {
      EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt)
          << "seed " << Seed << ": " << Loaded.error().render();
      ++Detected;
      continue;
    }
    ASSERT_EQ(Loaded->size(), T.size()) << "seed " << Seed;
    for (uint32_t I = 0; I != Loaded->size(); ++I)
      ASSERT_EQ(Loaded->renderEntry(I), T.renderEntry(I))
          << "seed " << Seed << " entry " << I;
  }
  EXPECT_GE(Detected, 1u) << "no seed's flip landed in checksummed bytes";
  std::remove(Path.c_str());
}

TEST(DegradationLadder, PoolDispatchStallsNeverChangeResults) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Left = workloadTrace(Strings);
  GeneratorOptions G;
  G.NumClasses = 3;
  G.OuterIters = 12;
  G.NumThreads = 2;
  G.Seed = 42;
  G.Perturb = 2;
  Trace Right = traceOf(generateProgram(G), Strings);
  ViewsDiffOptions Options;
  Options.Jobs = 4;
  Options.ParallelCutoffEntries = 0; // Force the parallel machinery.
  DiffResult Reference = viewsDiff(Left, Right, Options);
  {
    ScopedFaultInjection Arm(17);
    FaultInjector::get().configure(FaultSite::PoolDispatch, 1.0);
    FaultInjector::get().setStallMicros(100);
    DiffResult Stalled = viewsDiff(Left, Right, Options);
    EXPECT_EQ(Reference.render(50, 12), Stalled.render(50, 12));
    EXPECT_EQ(Reference.Stats.CompareOps, Stalled.Stats.CompareOps);
  }
}

//===----------------------------------------------------------------------===//
// Salvage
//===----------------------------------------------------------------------===//

/// Asserts that every entry column of \p S is a byte-identical prefix of
/// \p T's, and its side tables the parts of T's that prefix reaches (the
/// --salvage acceptance criterion: recovered entries are the original
/// bytes, not a reconstruction).
void expectByteIdenticalPrefix(const Trace &T, const Trace &S) {
  size_t N = S.size();
  ASSERT_LE(N, T.size());
  EXPECT_EQ(0, std::memcmp(T.Tids.data(), S.Tids.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.Methods.data(), S.Methods.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.SelfIds.data(), S.SelfIds.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.Kinds.data(), S.Kinds.data(), N));
  EXPECT_EQ(0, std::memcmp(T.Names.data(), S.Names.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.TargetIds.data(), S.TargetIds.data(), N * 4));
  EXPECT_EQ(0, std::memcmp(T.Values.data(), S.Values.data(), N * 16));
  ASSERT_EQ(S.ArgOffsets.size(), N + 1);
  EXPECT_EQ(0,
            std::memcmp(T.ArgOffsets.data(), S.ArgOffsets.data(), (N + 1) * 4));
  EXPECT_EQ(0, std::memcmp(T.Provs.data(), S.Provs.data(), N * 4));
  EXPECT_EQ(S.ArgPool.size(), S.ArgOffsets[N]);
  EXPECT_EQ(0, std::memcmp(T.ArgPool.data(), S.ArgPool.data(),
                           S.ArgPool.byteSize()));
  ASSERT_EQ(S.Objects.size(), T.Objects.size());
  EXPECT_EQ(0, std::memcmp(T.Objects.data(), S.Objects.data(),
                           S.Objects.byteSize()));
  ASSERT_LE(S.ChildTidTable.size(), T.ChildTidTable.size());
  EXPECT_EQ(0, std::memcmp(T.ChildTidTable.data(), S.ChildTidTable.data(),
                           S.ChildTidTable.byteSize()));
}

TEST(Salvage, TruncatedOneSegmentRecoversByteIdenticalPrefix) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  ASSERT_GT(T.size(), 50u);
  std::string Base = tempPath("salvage_base");
  ASSERT_TRUE(writeTrace(T, Base));
  std::vector<uint8_t> Good = readAll(Base);

  // Cut points derived from the section table, not guessed fractions. In
  // the columnar layout a truncation mid-column leaves every *later*
  // required column absent, so only cuts in the trailing sections — the
  // last entry column (Prov, id 18) and the derived fingerprint lane
  // (Fp, id 19) — can recover entries. An earlier cut is refused.
  std::vector<SectionRec> Table = sectionTable(Good);
  SectionRec Prov = findSection(Table, 18), Fp = findSection(Table, 19),
             Value = findSection(Table, 16);
  ASSERT_TRUE(Prov.Id && Fp.Id && Value.Id);

  TelemetryWindow W;
  struct Cut {
    const char *What;
    size_t Bytes;
    bool Recoverable;
    bool Shrinks; ///< Recovered prefix must be strictly shorter.
  } Cuts[] = {
      // Mid-Prov: entries up to the cut survive, the rest drop.
      {"mid-prov", size_t(Prov.Offset + Prov.Length / 2), true, true},
      // Mid-fingerprints: all entries survive, fps are recomputed.
      {"mid-fp", size_t(Fp.Offset + Fp.Length / 2), true, false},
      // Mid-Value: ArgOffsets onward is gone entirely — refused.
      {"mid-value", size_t(Value.Offset + Value.Length / 2), false, false},
  };
  std::string CutPath = tempPath("salvage_cut");
  for (const Cut &C : Cuts) {
    std::vector<uint8_t> Bytes = Good;
    Bytes.resize(C.Bytes);
    writeAll(CutPath, Bytes);
    SCOPED_TRACE(C.What);

    Expected<Trace> Strict = readTrace(CutPath, Strings);
    ASSERT_FALSE(bool(Strict));
    EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);

    TraceReadReport Report;
    ReadOptions Options;
    Options.Salvage = true;
    Options.Report = &Report;
    Expected<Trace> Salvaged = readTrace(CutPath, Strings, Options);
    if (!C.Recoverable) {
      ASSERT_FALSE(bool(Salvaged));
      EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
      continue;
    }
    ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
    EXPECT_TRUE(Report.Salvaged);
    EXPECT_EQ(Report.EntriesRecovered, Salvaged->size());
    EXPECT_EQ(Report.EntriesRecovered + Report.EntriesDropped, T.size());
    if (C.Shrinks) {
      EXPECT_LT(Salvaged->size(), T.size());
      EXPECT_GT(Salvaged->size(), 0u);
    } else {
      EXPECT_EQ(Salvaged->size(), T.size());
      EXPECT_EQ(Report.EntriesDropped, 0u);
    }
    expectByteIdenticalPrefix(T, *Salvaged);
    // The recovered prefix renders identically entry for entry.
    for (uint32_t I = 0; I != Salvaged->size(); ++I)
      ASSERT_EQ(Salvaged->renderEntry(I), T.renderEntry(I)) << I;
  }
  EXPECT_GE(W.counter("robust.salvage.used"), 2u);
  EXPECT_GE(W.counter("robust.salvage.dropped_entries"), 1u);
  std::remove(Base.c_str());
  std::remove(CutPath.c_str());
}

TEST(Salvage, DamagedSideTableIsUnsalvageable) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("unsalvageable");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  // Flip a byte inside the string table: entries are meaningless without
  // it, so salvage must refuse rather than return garbage symbols.
  SectionRec StringTable = findSection(sectionTable(Bytes), 20);
  ASSERT_GT(StringTable.Length, 0u);
  Bytes[static_cast<size_t>(StringTable.Offset + StringTable.Length / 2)] ^= 0x10;
  writeAll(Path, Bytes);

  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_FALSE(bool(Salvaged));
  EXPECT_EQ(Salvaged.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
  std::remove(Path.c_str());
}

TEST(Salvage, IntactFilesReadIdenticallyWithSalvageOn) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("salvage_noop");
  ASSERT_TRUE(writeTrace(T, Path));
  TraceReadReport Report;
  ReadOptions Options;
  Options.Salvage = true;
  Options.Report = &Report;
  Expected<Trace> Loaded = readTrace(Path, Strings, Options);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Report.Salvaged) << "salvage must be a no-op on clean files";
  EXPECT_EQ(Loaded->size(), T.size());
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Salvage without a directory
//===----------------------------------------------------------------------===//

/// The trailer's footer pointer, straight off the written bytes
/// (independent of the reader under test).
uint64_t footerOffset(const std::vector<uint8_t> &Bytes) {
  EXPECT_GE(Bytes.size(), 32u + 24u);
  if (Bytes.size() < 32 + 24)
    return 0;
  return loadLE<uint64_t>(Bytes.data() + Bytes.size() - 24);
}

TEST(SalvageSegments, TruncatedDirectoryReadsSegmentZero) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = workloadTrace(Strings);
  std::string Path = tempPath("seg_tail");
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Good = readAll(Path);
  uint64_t Footer = footerOffset(Good);
  ASSERT_GT(Footer, 32u);

  // Cut inside the trailer, then inside the footer: either way the
  // directory is gone but the segment body is intact.
  for (size_t Cut : {Good.size() - 10, size_t(Footer) + 12}) {
    SCOPED_TRACE("cut at " + std::to_string(Cut));
    std::vector<uint8_t> Bytes = Good;
    Bytes.resize(Cut);
    writeAll(Path, Bytes);

    Expected<Trace> Strict = readTrace(Path, Strings);
    ASSERT_FALSE(bool(Strict));
    EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);

    TraceReadReport Report;
    ReadOptions Options;
    Options.Salvage = true;
    Options.Report = &Report;
    Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
    ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
    // Salvage reads the segment header right after the file header and
    // recovers everything; the read still reports salvage so callers know
    // the file needs rewriting.
    EXPECT_TRUE(Report.Salvaged);
    EXPECT_EQ(Report.EntriesDropped, 0u);
    ASSERT_EQ(Salvaged->size(), T.size());
    for (uint32_t I = 0; I != Salvaged->size(); ++I)
      ASSERT_EQ(Salvaged->renderEntry(I), T.renderEntry(I)) << I;
  }
  std::remove(Path.c_str());
}

TEST(SalvageSegments, OneDamagedColumnIsUnsalvageable) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf("class A { } main { var a = new A(); }", Strings);
  std::string Path = tempPath("seg_allgone");
  // One segment holds everything, and a section checksum covers a whole
  // column: one flipped byte discredits the entire Kind column, so no
  // prefix is trustworthy. Salvage must refuse rather than return an
  // empty trace that looks legitimately empty.
  ASSERT_TRUE(writeTrace(T, Path));
  std::vector<uint8_t> Bytes = readAll(Path);
  SectionRec Kind = findSection(sectionTable(Bytes), 13);
  ASSERT_GT(Kind.Length, 0u);
  Bytes[static_cast<size_t>(Kind.Offset)] ^= 0xff;
  writeAll(Path, Bytes);

  Expected<Trace> Strict = readTrace(Path, Strings);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Code, "trace.section_checksum");

  ReadOptions Options;
  Options.Salvage = true;
  Expected<Trace> Salvaged = readTrace(Path, Strings, Options);
  ASSERT_FALSE(bool(Salvaged));
  EXPECT_EQ(Salvaged.error().Code, "trace.unsalvageable");
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Retry policy (the --retry-policy / RPRISM_RETRY_POLICY surface)
//===----------------------------------------------------------------------===//

TEST(RetryPolicy, ParseAcceptsEitherKeyAloneOrBoth) {
  RetryPolicy P;
  std::string Error;
  ASSERT_TRUE(parseRetryPolicy("attempts=5", P, &Error)) << Error;
  EXPECT_EQ(P.MaxAttempts, 5u);
  EXPECT_EQ(P.BackoffMicros, 100u); // Unmentioned key keeps its value.
  ASSERT_TRUE(parseRetryPolicy("base_ms=2", P, &Error)) << Error;
  EXPECT_EQ(P.MaxAttempts, 5u);
  EXPECT_EQ(P.BackoffMicros, 2000u);
  ASSERT_TRUE(parseRetryPolicy("attempts=1,base_ms=0", P, &Error)) << Error;
  EXPECT_EQ(P.MaxAttempts, 1u);
  EXPECT_EQ(P.BackoffMicros, 0u);
}

TEST(RetryPolicy, MalformedSpecsAreAllOrNothing) {
  RetryPolicy P;
  P.MaxAttempts = 9;
  P.BackoffMicros = 350;
  const RetryPolicy Before = P;
  for (const char *Bad :
       {"", "attempts=0", "attempts=", "attempts=x", "attempts",
        "bogus=1", "attempts=2,attempts=3", "base_ms=7,base_ms=8",
        "attempts=2,", "attempts=2,,base_ms=1", "base_ms=4294968",
        "attempts=99999999999"}) {
    SCOPED_TRACE(Bad);
    std::string Error;
    EXPECT_FALSE(parseRetryPolicy(Bad, P, &Error));
    EXPECT_FALSE(Error.empty());
    // The mirror of the fault-spec contract: failure leaves P untouched.
    EXPECT_EQ(P.MaxAttempts, Before.MaxAttempts);
    EXPECT_EQ(P.BackoffMicros, Before.BackoffMicros);
  }
}

TEST(RetryPolicy, ProcessWidePolicyRoundTripsAndGovernsLoads) {
  const RetryPolicy Saved = ioRetryPolicy();
  RetryPolicy Custom;
  Custom.MaxAttempts = 7;
  Custom.BackoffMicros = 250;
  setIoRetryPolicy(Custom);
  RetryPolicy Got = ioRetryPolicy();
  EXPECT_EQ(Got.MaxAttempts, 7u);
  EXPECT_EQ(Got.BackoffMicros, 250u);

  // attempts=1 means "no retries": the transient open failure that the
  // default policy absorbs (DegradationLadder.TransientOpenFailureIsRetried)
  // now surfaces as a typed I/O error, and no retry is counted.
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("retry_policy");
  ASSERT_TRUE(writeTrace(T, Path));
  RetryPolicy One;
  One.MaxAttempts = 1;
  One.BackoffMicros = 0;
  setIoRetryPolicy(One);
  TelemetryWindow W;
  {
    ScopedFaultInjection Arm(7);
    FaultInjector::get().configure(FaultSite::FileOpen, 0.0, /*OneShotAt=*/0);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded));
    EXPECT_EQ(Loaded.error().Class, ErrClass::Io);
  }
  EXPECT_EQ(W.counter("robust.io_retry"), 0u);
  setIoRetryPolicy(Saved);
  std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// armFromSpec (the --fault-spec / RPRISM_FAULT_SPEC surface)
//===----------------------------------------------------------------------===//

TEST(FaultSpec, ValidSpecArmsExactlyLikeArmPlusConfigure) {
  FaultInjector &FI = FaultInjector::get();
  std::string Error;
  ASSERT_TRUE(FI.armFromSpec("seed=7,file-open:1.0", &Error)) << Error;
  EXPECT_TRUE(FaultInjector::enabled());
  EXPECT_TRUE(FaultInjector::fire(FaultSite::FileOpen));
  // Unconfigured sites stay quiet.
  EXPECT_FALSE(FaultInjector::fire(FaultSite::SectionChecksum));
  FI.disarm();
}

TEST(FaultSpec, OneShotClauseFiresExactlyThatOccurrence) {
  FaultInjector &FI = FaultInjector::get();
  std::string Error;
  ASSERT_TRUE(FI.armFromSpec("seed=1,section-checksum:0@2", &Error))
      << Error;
  EXPECT_FALSE(FaultInjector::fire(FaultSite::SectionChecksum));
  EXPECT_FALSE(FaultInjector::fire(FaultSite::SectionChecksum));
  EXPECT_TRUE(FaultInjector::fire(FaultSite::SectionChecksum));
  EXPECT_FALSE(FaultInjector::fire(FaultSite::SectionChecksum));
  EXPECT_EQ(FI.injected(FaultSite::SectionChecksum), 1u);
  FI.disarm();
}

TEST(FaultSpec, SameSpecSeedReplaysTheSameSchedule) {
  FaultInjector &FI = FaultInjector::get();
  auto Schedule = [&] {
    std::vector<bool> Fires;
    for (unsigned I = 0; I != 64; ++I)
      Fires.push_back(FaultInjector::fire(FaultSite::FileRead));
    return Fires;
  };
  ASSERT_TRUE(FI.armFromSpec("seed=42,file-read:0.3"));
  std::vector<bool> First = Schedule();
  ASSERT_TRUE(FI.armFromSpec("seed=42,file-read:0.3"));
  EXPECT_EQ(Schedule(), First);
  FI.disarm();
}

TEST(FaultSpec, MalformedSpecsNeverArm) {
  FaultInjector &FI = FaultInjector::get();
  FI.disarm();
  const char *Bad[] = {
      "bogus",                    // not a clause at all
      "nope:0.5",                 // unknown site
      "cache-insert:0.5",         // unknown site
      "file-open:2.0",            // probability out of range
      "file-open:x",              // probability not a number
      "seed=z",                   // bad seed
      "stall=z",                  // bad stall
      "file-open:0.5@y",          // bad occurrence index
      "seed=3,file-open:0.5,junk" // valid prefix, malformed tail
  };
  for (const char *Spec : Bad) {
    std::string Error;
    EXPECT_FALSE(FI.armFromSpec(Spec, &Error)) << Spec;
    EXPECT_FALSE(Error.empty()) << Spec;
    EXPECT_FALSE(FaultInjector::enabled())
        << "malformed spec '" << Spec << "' must not leave the injector armed";
  }
}

TEST(FaultSpec, EmptyAndWhitespaceFreeClausesAreTolerated) {
  // Empty spec and stray commas arm with defaults (seed 0, nothing
  // configured) — a no-op injector, not an error.
  FaultInjector &FI = FaultInjector::get();
  ASSERT_TRUE(FI.armFromSpec(""));
  EXPECT_TRUE(FaultInjector::enabled());
  EXPECT_FALSE(FaultInjector::fire(FaultSite::FileOpen));
  ASSERT_TRUE(FI.armFromSpec("seed=5,,file-mmap:1.0"));
  EXPECT_TRUE(FaultInjector::fire(FaultSite::FileMmap));
  FI.disarm();
}

} // namespace
