//===- tests/TraceTest.cpp - Trace model and serialization tests ----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/TraceRecorder.h"
#include "support/Telemetry.h"
#include "runtime/Vm.h"
#include "support/Hashing.h"
#include "trace/Serialize.h"
#include "workload/Corpus.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <map>

using namespace rprism;

namespace {

Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings = nullptr,
              RunOptions Options = RunOptions()) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog, Options);
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

/// A unique temp path per test.
std::string tempPath(const std::string &Tag) {
  return "/tmp/rprism_test_" + Tag + "_" +
         std::to_string(::getpid());
}

//===----------------------------------------------------------------------===//
// Object / value representation equality
//===----------------------------------------------------------------------===//

TEST(Repr, ObjReprEqualityUsesValueHashWhenPresent) {
  ObjRepr A;
  A.ClassName = Symbol{3};
  A.HasRepr = true;
  A.ValueHash = 111;
  A.CreationSeq = 1;
  ObjRepr B = A;
  B.Loc = 999; // Locations never participate in equality.
  EXPECT_TRUE(reprEquals(A, B));

  B.ValueHash = 222;
  EXPECT_FALSE(reprEquals(A, B));

  // Different classes never correlate.
  B = A;
  B.ClassName = Symbol{4};
  EXPECT_FALSE(reprEquals(A, B));
}

TEST(Repr, ObjReprFallsBackToCreationSeq) {
  ObjRepr A;
  A.ClassName = Symbol{3};
  A.HasRepr = false;
  A.CreationSeq = 5;
  A.ValueHash = 1;
  ObjRepr B = A;
  B.ValueHash = 2; // Irrelevant without HasRepr.
  EXPECT_TRUE(reprEquals(A, B));
  B.CreationSeq = 6;
  EXPECT_FALSE(reprEquals(A, B));
}

TEST(Repr, MixedHasReprFallsBackToSeq) {
  ObjRepr A;
  A.ClassName = Symbol{3};
  A.HasRepr = true;
  A.ValueHash = 42;
  A.CreationSeq = 2;
  ObjRepr B = A;
  B.HasRepr = false;
  EXPECT_TRUE(reprEquals(A, B)); // Seq 2 == 2.
}

TEST(Repr, ValueReprEquality) {
  ValueRepr A;
  A.Kind = ReprKind::Int;
  A.Bits = 10;
  A.Text = Symbol{1};
  ValueRepr B = A;
  B.Text = Symbol{2}; // Text not compared.
  EXPECT_TRUE(reprEquals(A, B));
  B.Bits = 11;
  EXPECT_FALSE(reprEquals(A, B));
  B = A;
  B.Kind = ReprKind::Float;
  EXPECT_FALSE(reprEquals(A, B));
}

//===----------------------------------------------------------------------===//
// eventEquals (=e)
//===----------------------------------------------------------------------===//

TEST(EventEquals, CountsCompareOps) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf("class A { Int m() { return 1; } } "
                    "main { print(new A().m()); }",
                    Strings);
  ASSERT_GE(T.size(), 2u);
  CompareCounter Ops;
  eventEquals(T, 0u, T, 0u, &Ops);
  eventEquals(T, 0u, T, 1u, &Ops);
  EXPECT_EQ(Ops.Count, 2u);
}

TEST(EventEquals, SelfEqualityHoldsForEveryEntry) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class W { Int v; W(Int v) { this.v = v; }
      Unit go() { this.v = this.v * 2; return unit; } }
    main { var w = new W(3); w.go(); spawn w.go(); }
  )",
                    Strings);
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    EXPECT_TRUE(eventEquals(T, Eid, T, Eid)) << T.renderEntry(Eid);
}

TEST(EventEquals, DistinguishesValues) {
  auto Strings = std::make_shared<StringInterner>();
  Trace A = traceOf("class B { Int v; B(Int v) { this.v = v; } } "
                    "main { var b = new B(1); }",
                    Strings);
  Trace B = traceOf("class B { Int v; B(Int v) { this.v = v; } } "
                    "main { var b = new B(2); }",
                    Strings);
  // Init events differ (argument 1 vs 2).
  EXPECT_FALSE(eventEquals(A, 0u, B, 0u));
}

TEST(EventEquals, IndexAndEntryOverloadsAgree) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class W { Int v; W(Int v) { this.v = v; }
      Unit go() { this.v = this.v + 1; return unit; } }
    main { var w = new W(3); w.go(); w.go(); spawn w.go(); }
  )",
                    Strings);
  for (uint32_t A = 0; A != T.size(); ++A)
    for (uint32_t B = 0; B != T.size(); ++B)
      EXPECT_EQ(eventEquals(T, A, T, B),
                eventEquals(T, T.entry(A), T, T.entry(B)))
          << T.renderEntry(A) << " vs " << T.renderEntry(B);
}

//===----------------------------------------------------------------------===//
// Columnar storage
//===----------------------------------------------------------------------===//

TEST(Columnar, EntryMaterializationScattersAndGathers) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class P { Int x; P(Int x) { this.x = x; } }
    main { var p = new P(9); print(p.x); }
  )",
                    Strings);
  ASSERT_GT(T.size(), 0u);
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    TraceEntry Entry = T.entry(Eid);
    EXPECT_EQ(Entry.Eid, Eid);
    EXPECT_EQ(Entry.Tid, T.tid(Eid));
    EXPECT_EQ(Entry.Method, T.method(Eid));
    EXPECT_EQ(Entry.Ev.Kind, T.kind(Eid));
    EXPECT_EQ(Entry.Ev.Name, T.name(Eid));
    EXPECT_EQ(Entry.Ev.ArgsEnd - Entry.Ev.ArgsBegin, T.numArgs(Eid));
    EXPECT_TRUE(reprEquals(Entry.Ev.Target, T.target(Eid)));
    EXPECT_EQ(Entry.Fp, T.fp(Eid));
  }
  // Appending a materialized entry scatters it back unchanged.
  Trace Copy;
  Copy.Strings = T.Strings;
  Copy.Threads = T.Threads;
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    Copy.append(T.entry(Eid));
  for (const ValueRepr &Arg : T.ArgPool)
    Copy.ArgPool.push_back(Arg);
  ASSERT_EQ(Copy.size(), T.size());
  Copy.computeFingerprints();
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    EXPECT_TRUE(eventEquals(T, Eid, Copy, Eid));
    EXPECT_EQ(T.fp(Eid), Copy.fp(Eid));
  }
}

//===----------------------------------------------------------------------===//
// Serialization
//===----------------------------------------------------------------------===//

/// Structural equality of traces via =e plus metadata.
void expectTracesEqual(const Trace &A, const Trace &B) {
  ASSERT_EQ(A.size(), B.size());
  for (uint32_t I = 0; I != A.size(); ++I) {
    EXPECT_TRUE(eventEquals(A, I, B, I))
        << "entry " << I << ": " << A.renderEntry(I) << " vs "
        << B.renderEntry(I);
    EXPECT_EQ(A.tid(I), B.tid(I));
    EXPECT_EQ(A.prov(I), B.prov(I));
    // Context strings must survive re-interning.
    EXPECT_EQ(A.Strings->text(A.method(I)), B.Strings->text(B.method(I)));
  }
  ASSERT_EQ(A.Threads.size(), B.Threads.size());
  for (size_t I = 0; I != A.Threads.size(); ++I) {
    EXPECT_EQ(A.Threads[I].ParentTid, B.Threads[I].ParentTid);
    EXPECT_EQ(A.Threads[I].AncestryHash, B.Threads[I].AncestryHash);
    EXPECT_EQ(A.Strings->text(A.Threads[I].EntryMethod),
              B.Strings->text(B.Threads[I].EntryMethod));
  }
}

TEST(Serialize, RoundTripPreservesEverything) {
  Trace T = traceOf(R"(
    class Node { Int v; Node next; Node(Int v) { this.v = v; this.next = null; } }
    class List { Node head; List() { this.head = null; }
      Unit push(Int v) { var n = new Node(v); n.next = this.head;
        this.head = n; return unit; } }
    main {
      var l = new List();
      var i = 0;
      while (i < 10) { l.push(i * i); i = i + 1; }
      spawn l.push(999);
    }
  )");
  std::string Path = tempPath("roundtrip");
  ASSERT_TRUE(writeTrace(T, Path));
  // Reload into a *fresh* interner: symbol ids will differ, text must not.
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  expectTracesEqual(T, *Loaded);
  std::remove(Path.c_str());
}

TEST(Serialize, OneSegmentColumnsLoadByteIdenticalAndZeroCopy) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); a.bump(); spawn a.bump(); }
  )");
  ASSERT_TRUE(T.HasFingerprints);
  std::string Path = tempPath("oneseg_bytes");
  ASSERT_TRUE(writeTrace(T, Path));

  // A fresh interner re-interns the file's string table in order, so
  // symbol ids are preserved and the loader takes the zero-copy borrow
  // path: Backing holds the file bytes, every column — including the
  // fingerprints, which are not recomputed — is borrowed from them and
  // byte-identical, and so is the argument pool.
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_TRUE(Loaded->Backing != nullptr);
  EXPECT_TRUE(Loaded->HasFingerprints);
  for (bool Borrowed :
       {Loaded->Tids.borrowed(), Loaded->Methods.borrowed(),
        Loaded->SelfIds.borrowed(), Loaded->Kinds.borrowed(),
        Loaded->Names.borrowed(), Loaded->TargetIds.borrowed(),
        Loaded->Values.borrowed(), Loaded->ArgOffsets.borrowed(),
        Loaded->Provs.borrowed(), Loaded->Fps.borrowed(),
        Loaded->Objects.borrowed(), Loaded->ChildTidTable.borrowed(),
        Loaded->ArgPool.borrowed()})
    EXPECT_TRUE(Borrowed);

  ASSERT_EQ(Loaded->size(), T.size());
  auto ExpectColumnBytes = [](const auto &Want, const auto &Got) {
    ASSERT_EQ(Want.size(), Got.size());
    EXPECT_EQ(std::memcmp(Want.data(), Got.data(), Want.byteSize()), 0);
  };
  ExpectColumnBytes(T.Tids, Loaded->Tids);
  ExpectColumnBytes(T.Methods, Loaded->Methods);
  ExpectColumnBytes(T.SelfIds, Loaded->SelfIds);
  ExpectColumnBytes(T.Kinds, Loaded->Kinds);
  ExpectColumnBytes(T.Names, Loaded->Names);
  ExpectColumnBytes(T.TargetIds, Loaded->TargetIds);
  ExpectColumnBytes(T.Values, Loaded->Values);
  ExpectColumnBytes(T.ArgOffsets, Loaded->ArgOffsets);
  ExpectColumnBytes(T.Objects, Loaded->Objects);
  ExpectColumnBytes(T.ChildTidTable, Loaded->ChildTidTable);
  ExpectColumnBytes(T.Provs, Loaded->Provs);
  ExpectColumnBytes(T.Fps, Loaded->Fps);
  ExpectColumnBytes(T.ArgPool, Loaded->ArgPool);

  // Mutating a borrowed column detaches it without touching the mapping:
  // the loaded trace keeps working after the original is gone.
  Trace Detached = *Loaded;
  Detached.Tids.mut(0) = 77;
  EXPECT_EQ(Loaded->tid(0), T.tid(0));
  EXPECT_EQ(Detached.tid(0), 77u);
  std::remove(Path.c_str());
}

TEST(Serialize, ReloadedTraceDiffsCleanAgainstLive) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); a.bump(); print(a.x); }
  )");
  std::string Path = tempPath("diffclean");
  ASSERT_TRUE(writeTrace(T, Path));
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded));
  EXPECT_EQ(viewsDiff(T, *Loaded).numDiffs(), 0u);
  std::remove(Path.c_str());
}

TEST(Serialize, RejectsMissingAndCorruptFiles) {
  EXPECT_FALSE(bool(readTrace("/tmp/definitely/not/here", nullptr)));

  std::string Path = tempPath("corrupt");
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  ASSERT_TRUE(F != nullptr);
  std::fputs("this is not a trace file", F);
  std::fclose(F);
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_NE(Loaded.error().Message.find("not a trace"), std::string::npos);
  std::remove(Path.c_str());
}

TEST(Serialize, RejectsTruncatedFiles) {
  Trace T = traceOf("class A { } main { var a = new A(); }");
  std::string Path = tempPath("trunc");
  ASSERT_TRUE(writeTrace(T, Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  // Every truncation point must be rejected cleanly — a cut file has no
  // trailer, and the reader validates every extent against the mapped
  // size before touching any payload byte, so no cut can read out of
  // bounds.
  for (long Cut : {Size / 2, Size - 1, long(20), long(8)}) {
    ASSERT_TRUE(truncate(Path.c_str(), Cut) == 0);
    EXPECT_FALSE(bool(readTrace(Path, nullptr))) << "cut at " << Cut;
  }
  std::remove(Path.c_str());
}

std::string readFileBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// Flips the last byte of the last section payload of a one-segment
/// file. The segment's section table starts right after the 32-byte file
/// header and 32-byte segment header; the trailing directory and padding
/// carry no payload bytes.
void flipLastPayloadByte(const std::string &Path) {
  std::string Bytes = readFileBytes(Path);
  ASSERT_GE(Bytes.size(), 64u);
  uint32_t NumSections;
  std::memcpy(&NumSections, Bytes.data() + 32 + 20, 4);
  uint64_t End = 0;
  for (uint32_t I = 0; I != NumSections; ++I) {
    uint64_t Offset, Length;
    std::memcpy(&Offset, Bytes.data() + 64 + I * 32 + 8, 8);
    std::memcpy(&Length, Bytes.data() + 64 + I * 32 + 16, 8);
    if (Length != 0)
      End = std::max(End, 32 + Offset + Length);
  }
  ASSERT_GT(End, 0u);
  Bytes[End - 1] ^= 0xff;
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
}

TEST(Serialize, RejectsCorruptSectionBytes) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; } }
    main { var a = new A(5); print(a.x); }
  )");
  std::string Path = tempPath("badsec");
  // The last payload is the fingerprint lane, so the flip must be a hard
  // error: the section checksum catches it.
  ASSERT_TRUE(writeTrace(T, Path));
  flipLastPayloadByte(Path);

  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Loaded));
  EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Loaded.error().Code, "trace.section_checksum");
  std::remove(Path.c_str());
}

TEST(Serialize, RejectsMultiSegmentDirectory) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; } }
    main { var a = new A(5); print(a.x); }
  )");
  std::string Path = tempPath("twoseg_dir");
  ASSERT_TRUE(writeTrace(T, Path));
  // Grow the footer directory to two records (the second a copy of the
  // first), then fix up the counts and the footer checksum so the trailer
  // and footer verify: only the segment count is wrong.
  std::string Bytes = readFileBytes(Path);
  ASSERT_GE(Bytes.size(), 120u);
  size_t TrailerAt = Bytes.size() - 24;
  uint64_t FooterOffset = 0;
  std::memcpy(&FooterOffset, Bytes.data() + TrailerAt, 8);
  ASSERT_EQ(FooterOffset + 8 + 32, TrailerAt);
  std::string Footer = Bytes.substr(FooterOffset, 8 + 32);
  Footer += Footer.substr(8, 32);
  uint32_t Two = 2;
  std::memcpy(&Footer[4], &Two, 4);
  std::string Trailer = Bytes.substr(TrailerAt);
  uint64_t FooterChecksum = checksumBytes(Footer.data(), Footer.size());
  std::memcpy(&Trailer[8], &FooterChecksum, 8);
  std::memcpy(&Trailer[16], &Two, 4);
  Bytes = Bytes.substr(0, FooterOffset) + Footer + Trailer;
  std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;

  Expected<Trace> Strict = readTrace(Path, nullptr);
  ASSERT_FALSE(bool(Strict));
  EXPECT_EQ(Strict.error().Class, ErrClass::Corrupt);
  EXPECT_EQ(Strict.error().Code, "trace.section");

  // Salvage ignores the directory and reads the segment after the file
  // header, which is intact.
  ReadOptions Options;
  TraceReadReport Report;
  Options.Salvage = true;
  Options.Report = &Report;
  Expected<Trace> Salvaged = readTrace(Path, nullptr, Options);
  ASSERT_TRUE(bool(Salvaged)) << Salvaged.error().render();
  EXPECT_TRUE(Report.Salvaged);
  EXPECT_EQ(Report.EntriesDropped, 0u);
  expectTracesEqual(T, *Salvaged);
  std::remove(Path.c_str());
}

TEST(Serialize, EmptyTraceRoundTrips) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T;
  T.Strings = Strings;
  T.Name = "empty";
  T.computeFingerprints();
  // Zero entries is a legal trace: it must round-trip and diff cleanly.
  std::string Path = tempPath("empty");
  ASSERT_TRUE(writeTrace(T, Path));
  Expected<Trace> Loaded = readTrace(Path, Strings);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_EQ(Loaded->size(), 0u);
  EXPECT_EQ(Loaded->Name, "empty");
  DiffResult SelfDiff = viewsDiff(*Loaded, *Loaded);
  EXPECT_EQ(SelfDiff.numLeftDiffs() + SelfDiff.numRightDiffs(), 0u);
  // Empty against a real trace must not crash either direction.
  Trace Real = traceOf("class A { } main { var a = new A(); }", Strings);
  (void)viewsDiff(*Loaded, Real);
  (void)viewsDiff(Real, *Loaded);
  std::remove(Path.c_str());
}

/// A hand-built one-entry trace (the smallest trace with any payload).
Trace singleEntryTrace(std::shared_ptr<StringInterner> Strings) {
  Trace T;
  T.Strings = Strings;
  T.Name = "single";
  ThreadInfo Main;
  Main.Tid = 0;
  Main.ParentTid = 0;
  Main.EntryMethod = Strings->intern("main");
  T.Threads.push_back(Main);
  TraceEntry E;
  E.Tid = 0;
  E.Method = Strings->intern("main");
  E.Ev.Kind = EventKind::Call;
  E.Ev.Name = Strings->intern("A.m");
  E.Ev.Target.ClassName = Strings->intern("A");
  E.Ev.Target.Loc = 1;
  E.Ev.Target.HasRepr = 1;
  E.Ev.Target.ValueHash = 42;
  T.append(E);
  T.computeFingerprints();
  return T;
}

TEST(Serialize, SingleEntryTraceRoundTrips) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = singleEntryTrace(Strings);
  std::string Path = tempPath("one");
  ASSERT_TRUE(writeTrace(T, Path));
  // Same interner: symbol ids are preserved, so the columns borrow
  // zero-copy from the file bytes.
  Expected<Trace> Loaded = readTrace(Path, Strings);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  ASSERT_EQ(Loaded->size(), 1u);
  EXPECT_TRUE(Loaded->Kinds.borrowed());
  EXPECT_TRUE(Loaded->Backing != nullptr);
  EXPECT_EQ(Loaded->renderEntry(0u), T.renderEntry(0u));
  EXPECT_EQ(Loaded->fp(0), T.fp(0));
  DiffResult SelfDiff = viewsDiff(T, *Loaded);
  EXPECT_EQ(SelfDiff.numLeftDiffs() + SelfDiff.numRightDiffs(), 0u);
  std::remove(Path.c_str());
}

TEST(Serialize, SharedInternerMergesSymbolSpaces) {
  Trace A = traceOf("class Foo { } main { var f = new Foo(); }");
  Trace B = traceOf("class Bar { } main { var b = new Bar(); }");
  std::string PathA = tempPath("mergeA");
  std::string PathB = tempPath("mergeB");
  ASSERT_TRUE(writeTrace(A, PathA));
  ASSERT_TRUE(writeTrace(B, PathB));

  auto Shared = std::make_shared<StringInterner>();
  Expected<Trace> LoadedA = readTrace(PathA, Shared);
  Expected<Trace> LoadedB = readTrace(PathB, Shared);
  ASSERT_TRUE(bool(LoadedA));
  ASSERT_TRUE(bool(LoadedB));
  EXPECT_EQ(LoadedA->Strings.get(), LoadedB->Strings.get());
  // "main" resolves to one symbol across both.
  EXPECT_EQ(LoadedA->Methods.back(), LoadedB->Methods.back());
  std::remove(PathA.c_str());
  std::remove(PathB.c_str());
}

//===----------------------------------------------------------------------===//
// One segment per file: its layout, remapped loads, digests, and diffs of
// loaded traces
//===----------------------------------------------------------------------===//

/// A small multi-thread trace with arguments and field traffic: every
/// section (side tables, columns, fingerprints) comes out nonempty.
Trace bumpTrace() {
  return traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); a.bump(); spawn a.bump(); }
  )");
}

TEST(SerializeSegments, BusyInternerRemapsAndRefingerprints) {
  Trace T = bumpTrace();
  std::string Path = tempPath("seg_remap");
  ASSERT_TRUE(writeTrace(T, Path));
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  Expected<Trace> Loaded = readTrace(Path, Busy);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_TRUE(Loaded->HasFingerprints);
  EXPECT_FALSE(Loaded->Methods.borrowed()) << "a remapped load owns columns";
  ASSERT_EQ(T.size(), Loaded->size());
  for (uint32_t Eid = 0; Eid != Loaded->size(); ++Eid) {
    EXPECT_EQ(T.renderEntry(Eid), Loaded->renderEntry(Eid)) << Eid;
    EXPECT_EQ(Loaded->fp(Eid), Loaded->entryFingerprint(Eid)) << Eid;
  }
  std::remove(Path.c_str());
}

TEST(SerializeSegments, EmptyAndSingleEntryTracesRoundTrip) {
  auto Strings = std::make_shared<StringInterner>();
  Trace Empty;
  Empty.Strings = Strings;
  Empty.Name = "empty";
  Empty.computeFingerprints();
  Trace One = singleEntryTrace(Strings);
  std::string Path = tempPath("seg_tiny");
  for (const Trace *T : {&Empty, &One}) {
    SCOPED_TRACE(T->Name);
    // Even an entry-less trace writes its one segment, so the side tables
    // (name, strings, threads) have somewhere to live; the file header's
    // segment-target field holds the entry count, at least 1.
    ASSERT_TRUE(writeTrace(*T, Path));
    std::string Bytes = readFileBytes(Path);
    ASSERT_GE(Bytes.size(), 88u);
    uint32_t Target = 0, SegEntries = 0, DirSegments = 0;
    std::memcpy(&Target, Bytes.data() + 12, 4);
    std::memcpy(&SegEntries, Bytes.data() + 32 + 16, 4);
    std::memcpy(&DirSegments, Bytes.data() + Bytes.size() - 8, 4);
    EXPECT_EQ(Target, 1u);
    EXPECT_EQ(SegEntries, T->size());
    EXPECT_EQ(DirSegments, 1u);
    Expected<Trace> Loaded = readTrace(Path, Strings);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_EQ(Loaded->Name, T->Name);
    ASSERT_EQ(Loaded->size(), T->size());
    for (uint32_t Eid = 0; Eid != T->size(); ++Eid) {
      EXPECT_EQ(Loaded->renderEntry(Eid), T->renderEntry(Eid));
      EXPECT_EQ(Loaded->fp(Eid), T->fp(Eid));
    }
  }
  std::remove(Path.c_str());
}

TEST(SerializeSegments, WriteTraceWritesOneSegment) {
  GeneratorOptions G;
  G.OuterIters = 8;
  Trace T = traceOf(generateProgram(G));
  ASSERT_GT(T.size(), 100u);
  std::string Path = tempPath("oneseg");
  ASSERT_TRUE(writeTrace(T, Path));
  std::string Bytes = readFileBytes(Path);
  ASSERT_GE(Bytes.size(), 56u);
  uint32_t Version = 0, Target = 0, Segments = 0;
  std::memcpy(&Version, Bytes.data() + 4, 4);
  std::memcpy(&Target, Bytes.data() + 12, 4);
  std::memcpy(&Segments, Bytes.data() + Bytes.size() - 8, 4);
  EXPECT_EQ(Version, 7u);
  EXPECT_EQ(Target, T.size());
  EXPECT_EQ(Segments, 1u) << "a whole trace is one segment";
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  expectTracesEqual(T, *Loaded);
  EXPECT_TRUE(Loaded->Kinds.borrowed());
  std::remove(Path.c_str());
}

TEST(SerializeSegments, FileDigestStablePerWrite) {
  Trace T = bumpTrace();
  std::string First = tempPath("digest_a");
  std::string Again = tempPath("digest_b");
  ASSERT_TRUE(writeTrace(T, First));
  ASSERT_TRUE(writeTrace(T, Again));
  std::string BFirst = readFileBytes(First);
  ASSERT_FALSE(BFirst.empty());
  EXPECT_EQ(BFirst, readFileBytes(Again)) << "identical writes must match";
  for (const std::string &Path : {First, Again})
    std::remove(Path.c_str());
}

TEST(SerializeSegments, LoadedDiffDeterministicAcrossJobs) {
  GeneratorOptions Base;
  Base.OuterIters = 10;
  Base.NumThreads = 2;
  Base.Seed = 11;
  GeneratorOptions Perturbed = Base;
  Perturbed.Perturb = 1;
  auto Gen = std::make_shared<StringInterner>();
  Trace L = traceOf(generateProgram(Base), Gen);
  Trace R = traceOf(generateProgram(Perturbed), Gen);
  std::string L1 = tempPath("xseg_l1"), R1 = tempPath("xseg_r1");
  ASSERT_TRUE(writeTrace(L, L1));
  ASSERT_TRUE(writeTrace(R, R1));

  // One shared interner across both loads, as a diff session would.
  auto Shared = std::make_shared<StringInterner>();
  Expected<Trace> LOne = readTrace(L1, Shared), ROne = readTrace(R1, Shared);
  ASSERT_TRUE(bool(LOne) && bool(ROne));

  ViewsDiffOptions Opt;
  Opt.Jobs = 1;
  Opt.ParallelCutoffEntries = 0; // Exercise the pool on small traces too.
  DiffResult Ref = viewsDiff(L, R, Opt);
  std::string RefRender = Ref.render();

  for (unsigned Jobs : {1u, 4u, 0u}) {
    SCOPED_TRACE("jobs=" + std::to_string(Jobs));
    Opt.Jobs = Jobs;
    DiffResult D = viewsDiff(*LOne, *ROne, Opt);
    // The report and the work accounting must match the in-memory diff at
    // every worker count.
    EXPECT_EQ(D.render(), RefRender);
    EXPECT_EQ(D.Stats.CompareOps, Ref.Stats.CompareOps);
    EXPECT_EQ(D.numLeftDiffs(), Ref.numLeftDiffs());
    EXPECT_EQ(D.numRightDiffs(), Ref.numRightDiffs());
  }
  for (const std::string &Path : {L1, R1})
    std::remove(Path.c_str());
}

//===----------------------------------------------------------------------===//
// Corpus round trips (property over all benchmark cases)
//===----------------------------------------------------------------------===//

class CorpusSerializationTest
    : public ::testing::TestWithParam<BenchmarkCase> {};

TEST_P(CorpusSerializationTest, RegrTraceRoundTrips) {
  Expected<PreparedCase> Prepared = prepareCase(GetParam());
  ASSERT_TRUE(bool(Prepared)) << Prepared.error().render();
  std::string Path = tempPath("corpus_" + GetParam().Name);
  ASSERT_TRUE(writeTrace(Prepared->NewRegr, Path));
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  ASSERT_EQ(Loaded->size(), Prepared->NewRegr.size());
  // Spot-check =e equality on a sample (full scan is O(n) but chatty).
  for (uint32_t I = 0; I < Loaded->size(); I += 97)
    EXPECT_TRUE(eventEquals(Prepared->NewRegr, I, *Loaded, I));
  std::remove(Path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    Corpus, CorpusSerializationTest, ::testing::ValuesIn(benchmarkCorpus()),
    [](const ::testing::TestParamInfo<BenchmarkCase> &Info) {
      std::string Name = Info.param.Name;
      for (char &C : Name)
        if (C == '-')
          C = '_';
      return Name;
    });

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

TEST(Render, EntryRenderingShowsFig13Style) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class NUM {
      Int minCharRange; Int maxCharRange;
      NUM(Int lo, Int hi) { this.minCharRange = lo; this.maxCharRange = hi; }
    }
    main { var n = new NUM(32, 127); print(n.minCharRange); }
  )",
                    Strings);
  std::string Dump = dumpTrace(T);
  EXPECT_NE(Dump.find("--> NUM-1.new(32, 127)"), std::string::npos) << Dump;
  EXPECT_NE(Dump.find("set NUM-1.minCharRange = 32"), std::string::npos);
  EXPECT_NE(Dump.find("<-- NUM-1.NUM.<init>(..) ret=unit"),
            std::string::npos);
  EXPECT_NE(Dump.find("get NUM-1.minCharRange = 32"), std::string::npos);
}

TEST(Render, StringValuesAreQuotedAndTruncated) {
  auto Strings = std::make_shared<StringInterner>();
  std::string Long(200, 'x');
  Trace T = traceOf("class S { Str v; S(Str v) { this.v = v; } } "
                    "main { var s = new S(\"" + Long + "\"); }",
                    Strings);
  std::string Dump = dumpTrace(T);
  EXPECT_NE(Dump.find("'"), std::string::npos);
  // Printable renderings are truncated to 128 chars (the paper's toString
  // cap); the 200-char literal must not appear whole.
  EXPECT_EQ(Dump.find(Long), std::string::npos);
  EXPECT_NE(Dump.find(std::string(128, 'x')), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Equality fingerprints
//===----------------------------------------------------------------------===//

TEST(Fingerprint, RecorderFinalizesWithFingerprints) {
  Trace T = traceOf("class A { Int m() { return 1; } } "
                    "main { print(new A().m()); }");
  EXPECT_TRUE(T.HasFingerprints);
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    EXPECT_EQ(T.fp(Eid), T.entryFingerprint(Eid));
}

/// The exactness contract over a randomized generated version pair: for
/// every cross-trace entry pair, fingerprint inequality must imply =e
/// inequality (never a false negative), and =e equality must imply equal
/// fingerprints. The =e side is computed with fingerprints disabled so the
/// check compares the fingerprints against the genuine slow path, not
/// against their own fast-reject.
TEST(Fingerprint, MirrorsEventEqualityOnGeneratedPair) {
  for (uint64_t Seed : {1u, 7u, 23u}) {
    GeneratorOptions Base;
    Base.OuterIters = 6;
    Base.NumThreads = 2;
    Base.Seed = Seed;
    GeneratorOptions Perturbed = Base;
    Perturbed.Perturb = 1;
    Perturbed.ReorderBlock = true;

    auto Strings = std::make_shared<StringInterner>();
    Trace L = traceOf(generateProgram(Base), Strings);
    Trace R = traceOf(generateProgram(Perturbed), Strings);
    ASSERT_TRUE(L.HasFingerprints);
    ASSERT_TRUE(R.HasFingerprints);
    Trace LSlow = L;
    Trace RSlow = R;
    LSlow.HasFingerprints = false;
    RSlow.HasFingerprints = false;

    size_t Checked = 0;
    for (uint32_t A = 0; A != L.size(); ++A)
      for (uint32_t B = 0; B != R.size(); ++B) {
        bool Equal = eventEquals(LSlow, A, RSlow, B);
        if (Equal) {
          EXPECT_EQ(L.fp(A), R.fp(B))
              << L.renderEntry(A) << " =e " << R.renderEntry(B);
        }
        if (L.fp(A) != R.fp(B)) {
          EXPECT_FALSE(Equal)
              << L.renderEntry(A) << " vs " << R.renderEntry(B);
        }
        ++Checked;
      }
    EXPECT_GT(Checked, 1000u);
  }
}

TEST(Fingerprint, SurvivesZeroCopyReloadVerbatim) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); print(a.x); }
  )");
  std::string Path = tempPath("fp_reload");
  ASSERT_TRUE(writeTrace(T, Path));
  // Fresh interner: the file's string table re-interns to identical symbol
  // ids, so the stored fingerprints are loaded verbatim — and must equal
  // a from-scratch recomputation over the loaded columns.
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded));
  EXPECT_TRUE(Loaded->HasFingerprints);
  for (uint32_t Eid = 0; Eid != Loaded->size(); ++Eid)
    EXPECT_EQ(Loaded->fp(Eid), Loaded->entryFingerprint(Eid));
  std::remove(Path.c_str());
}

TEST(Fingerprint, RecomputedAfterReinterningIntoBusyInterner) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; }
      Int bump() { this.x = this.x + 1; return this.x; } }
    main { var a = new A(7); a.bump(); print(a.x); }
  )");
  std::string Path = tempPath("fp_remap");
  ASSERT_TRUE(writeTrace(T, Path));
  // An interner that already holds other strings shifts the symbol ids, so
  // the loader must take the remap path and recompute fingerprints.
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  Busy->intern("occupying-symbol-id-two");
  Expected<Trace> Loaded = readTrace(Path, Busy);
  ASSERT_TRUE(bool(Loaded));
  EXPECT_TRUE(Loaded->HasFingerprints);
  // Symbol ids shift under the busy interner, so raw-symbol comparisons
  // (eventEquals, on-disk fingerprints) no longer apply across the two
  // traces. Semantic equality shows through the renders, and the
  // fingerprint lane must be consistent with the *remapped* symbols.
  ASSERT_EQ(T.size(), Loaded->size());
  for (uint32_t Eid = 0; Eid != Loaded->size(); ++Eid) {
    EXPECT_EQ(T.renderEntry(Eid), Loaded->renderEntry(Eid)) << "entry " << Eid;
    EXPECT_EQ(T.tid(Eid), Loaded->tid(Eid));
    EXPECT_EQ(T.prov(Eid), Loaded->prov(Eid));
    EXPECT_EQ(Loaded->fp(Eid), Loaded->entryFingerprint(Eid));
  }
  EXPECT_FALSE(Loaded->Fps.borrowed());
  std::remove(Path.c_str());
}

TEST(Fingerprint, RemapPathIsCountedAndZeroCopyPathIsNot) {
  Trace T = traceOf(R"(
    class A { Int x; A(Int x) { this.x = x; } }
    main { var a = new A(3); print(a.x); }
  )");
  std::string Path = tempPath("fp_counter");
  ASSERT_TRUE(writeTrace(T, Path));

  Telemetry::get().reset();
  Telemetry::get().setEnabled(true);
  // Fresh interner: symbols re-intern to identical ids, fingerprints load
  // verbatim — the recompute counter must stay untouched.
  ASSERT_TRUE(bool(readTrace(Path, nullptr)));
  EXPECT_EQ(Telemetry::get().snapshot().counter("load.fp_recompute"), 0u);
  // Busy interner: ids shift, so the loader recomputes — once per load.
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  ASSERT_TRUE(bool(readTrace(Path, Busy)));
  EXPECT_EQ(Telemetry::get().snapshot().counter("load.fp_recompute"), 1u);
  ASSERT_TRUE(bool(readTrace(Path, Busy)));
  EXPECT_EQ(Telemetry::get().snapshot().counter("load.fp_recompute"), 2u);
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();
  std::remove(Path.c_str());
}

TEST(EventEquals, ForkChildTidOutOfBoundsIsNotEqual) {
  auto Strings = std::make_shared<StringInterner>();
  Trace T = traceOf(R"(
    class W { Unit go() { return unit; } }
    main { spawn new W().go(); }
  )",
                    Strings);
  // Find the fork entry and corrupt a copy's child tid past the thread
  // table (as a truncated or damaged trace file could). Equality must
  // reject it instead of indexing out of bounds.
  Trace Bad = T;
  bool FoundFork = false;
  for (size_t Row = 0; Row != Bad.ChildTidTable.size(); ++Row)
    if (Bad.kind(Bad.ChildTidTable[Row].Eid) == EventKind::Fork) {
      Bad.ChildTidTable.mut(Row).Tid = 1000;
      FoundFork = true;
    }
  ASSERT_TRUE(FoundFork);
  Bad.computeFingerprints();
  for (uint32_t I = 0; I != T.size(); ++I) {
    bool IsFork = T.kind(I) == EventKind::Fork;
    EXPECT_EQ(eventEquals(T, I, Bad, I), !IsFork);
  }
  // Same checks through the slow path (fingerprints off): the bounds check
  // itself must reject the pair rather than index past the thread table.
  Bad.HasFingerprints = false;
  for (uint32_t I = 0; I != T.size(); ++I) {
    bool IsFork = T.kind(I) == EventKind::Fork;
    EXPECT_EQ(eventEquals(T, I, Bad, I), !IsFork);
  }
}

//===----------------------------------------------------------------------===//
// Scalar payloads: inline Bits, text rendered on demand
//===----------------------------------------------------------------------===//

/// The text the recorder formatted and interned for a scalar before scalar
/// payloads moved inline; renderValue must reproduce it exactly.
std::string eagerScalarText(const Value &V) {
  switch (V.K) {
  case Value::Kind::Int:
    return std::to_string(V.I);
  case Value::Kind::Bool:
    return V.I != 0 ? "true" : "false";
  case Value::Kind::Float: {
    char Buf[48];
    std::snprintf(Buf, sizeof(Buf), "%.6g", V.F);
    return Buf;
  }
  default:
    ADD_FAILURE() << "not a scalar sample";
    return "";
  }
}

/// The value hash a scalar carried before scalar payloads moved inline;
/// ValueRepr::hash() must reproduce it exactly.
uint64_t eagerScalarHash(const Value &V) {
  switch (V.K) {
  case Value::Kind::Int:
    return hashMix(SeedInt, static_cast<uint64_t>(V.I));
  case Value::Kind::Bool:
    return hashMix(SeedBool, V.I != 0);
  case Value::Kind::Float: {
    uint64_t Bits;
    std::memcpy(&Bits, &V.F, sizeof(Bits));
    return hashMix(SeedFloat, Bits);
  }
  default:
    ADD_FAILURE() << "not a scalar sample";
    return 0;
  }
}

std::vector<Value> scalarSamples() {
  return {Value::ofInt(0),
          Value::ofInt(-1),
          Value::ofInt(std::numeric_limits<int64_t>::min()),
          Value::ofInt(std::numeric_limits<int64_t>::max()),
          Value::ofFloat(0.0),
          Value::ofFloat(-0.0),
          Value::ofFloat(std::numeric_limits<double>::quiet_NaN()),
          Value::ofFloat(std::numeric_limits<double>::infinity()),
          Value::ofFloat(-std::numeric_limits<double>::infinity()),
          Value::ofFloat(1e-7),
          Value::ofFloat(123456789.0),
          Value::ofBool(true),
          Value::ofBool(false)};
}

TEST(ScalarPayload, RecordedScalarsRoundTripWithEagerTextAndHash) {
  auto Prog = compileSource("main { }", nullptr);
  ASSERT_TRUE(bool(Prog)) << Prog.error().render();
  ObjectStore Store(Prog->Classes.size());
  StringInterner RtStrings;
  TraceOptions Options;
  TraceRecorder Recorder(*Prog, Store, RtStrings, Options, "scalars");
  RecordContext Ctx;
  Ctx.Method = Prog->Strings->intern("main");
  // Every entry's thread needs its record, or the file is corrupt.
  ThreadInfo Main;
  Main.EntryMethod = Ctx.Method;
  Recorder.addThread(Main);
  Symbol Callee = Prog->Strings->intern("f");
  size_t StringsBefore = Prog->Strings->size();

  // One return entry per sample, plus one call carrying all of them as
  // arguments (the argument pool is a second ValueRepr column).
  std::vector<Value> Samples = scalarSamples();
  for (const Value &V : Samples)
    Recorder.recordReturn(Ctx, NoLoc, Callee, V, 0);
  Recorder.recordCall(Ctx, NoLoc, Callee, Samples.data(), Samples.size(), 0);
  Trace T = Recorder.take();
  EXPECT_EQ(Prog->Strings->size(), StringsBefore)
      << "recording a scalar must not intern text";
  ASSERT_EQ(T.size(), Samples.size() + 1);

  auto ExpectScalars = [&](const Trace &Got, const char *Format) {
    ASSERT_EQ(Got.size(), Samples.size() + 1) << Format;
    uint32_t CallEid = static_cast<uint32_t>(Samples.size());
    ASSERT_EQ(Got.numArgs(CallEid), Samples.size()) << Format;
    for (size_t I = 0; I != Samples.size(); ++I) {
      std::string Want = eagerScalarText(Samples[I]);
      for (const ValueRepr &Repr :
           {Got.value(static_cast<uint32_t>(I)), Got.args(CallEid)[I]}) {
        EXPECT_EQ(Got.renderValue(Repr), Want) << Format << " sample " << I;
        EXPECT_EQ(Repr.hash(), eagerScalarHash(Samples[I]))
            << Format << " sample " << I;
        EXPECT_TRUE(Repr.Text.empty()) << Format << " sample " << I;
        EXPECT_TRUE(reprEquals(Repr, T.value(static_cast<uint32_t>(I))))
            << Format << " sample " << I;
      }
    }
  };
  ExpectScalars(T, "recorded");

  // A fresh interner borrows the columns; a busy one copies and remaps
  // them. Inline scalars carry no symbol, so both load them verbatim.
  std::string Path = tempPath("scalars");
  ASSERT_TRUE(writeTrace(T, Path));
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  for (bool Remap : {false, true}) {
    Expected<Trace> Loaded = readTrace(Path, Remap ? Busy : nullptr);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    EXPECT_EQ(Loaded->Values.borrowed(), !Remap);
    ExpectScalars(*Loaded, Remap ? "remapped load" : "borrowed load");
  }
  std::remove(Path.c_str());
}

TEST(ScalarPayload, EqualityIsExactOnThePayload) {
  auto Float = [](double D) {
    ValueRepr R;
    R.Kind = ReprKind::Float;
    std::memcpy(&R.Bits, &D, sizeof(D));
    return R;
  };
  // -0.0 == 0.0 numerically, but the two render and hash differently, so
  // =e keeps them apart (as the eager hash did).
  EXPECT_FALSE(reprEquals(Float(-0.0), Float(0.0)));
  EXPECT_NE(Float(-0.0).hash(), Float(0.0).hash());
  double NaN = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(reprEquals(Float(NaN), Float(NaN))); // Same bit pattern.
  EXPECT_TRUE(reprEquals(Float(1e-7), Float(1e-7)));

  // Same Bits, different kind: Int 1 and Bool true never match.
  ValueRepr One, True;
  One.Kind = ReprKind::Int;
  One.Bits = 1;
  True.Kind = ReprKind::Bool;
  True.Bits = 1;
  EXPECT_FALSE(reprEquals(One, True));
  EXPECT_NE(One.hash(), True.hash());

  // Unit and Null carry no payload; their hashes are the kind seeds.
  ValueRepr Unit, Null;
  Unit.Kind = ReprKind::Unit;
  Null.Kind = ReprKind::Null;
  EXPECT_EQ(Unit.hash(), SeedUnit);
  EXPECT_EQ(Null.hash(), SeedNull);
}

//===----------------------------------------------------------------------===//
// A value-diverse version pair: distinct ints on every iteration
//===----------------------------------------------------------------------===//

/// A loop recording a distinct int per iteration (the accumulator and the
/// returned amount); versions differ only in the Tax rate.
std::string valueDiverseSource(int Rate) {
  return "class Tax {\n"
         "  Int rate;\n"
         "  Tax(Int rate) { this.rate = rate; }\n"
         "  Int apply(Int amount) { return amount + amount * this.rate / "
         "100; }\n"
         "}\n"
         "main {\n"
         "  var t = new Tax(" +
         std::to_string(Rate) +
         ");\n"
         "  var total = 0;\n"
         "  var i = 0;\n"
         "  var n = inputInt(0);\n"
         "  while (i < n) {\n"
         "    total = total + t.apply(i * 7 + 3);\n"
         "    i = i + 1;\n"
         "  }\n"
         "  print(total);\n"
         "}\n";
}

RunOptions iterations(int64_t N) {
  RunOptions Options;
  Options.IntInputs = {N};
  return Options;
}

TEST(ValueDiversePair, StringTableDoesNotGrowWithIterations) {
  Trace Short = traceOf(valueDiverseSource(10), nullptr, iterations(1000));
  Trace Long = traceOf(valueDiverseSource(10), nullptr, iterations(10000));
  EXPECT_GT(Long.size(), 9 * Short.size());
  EXPECT_EQ(Short.Strings->size(), Long.Strings->size());
}

TEST(ValueDiversePair, SecondLoadBorrowsAndFileDiffMatchesInMemory) {
  // In memory, as `rprism diff` computes it: one interner for both runs.
  auto Strings = std::make_shared<StringInterner>();
  Trace Old = traceOf(valueDiverseSource(10), Strings, iterations(2000));
  Trace New = traceOf(valueDiverseSource(11), Strings, iterations(2000));
  ViewsDiffOptions Options;
  std::string InMemory = viewsDiff(Old, New, Options).render(50, 12);

  // The files as two `rprism run` processes write them: each run has its
  // own interner, so each file carries only its own run's string table.
  std::string OldPath = tempPath("diverse_old");
  std::string NewPath = tempPath("diverse_new");
  ASSERT_TRUE(writeTrace(
      traceOf(valueDiverseSource(10), nullptr, iterations(2000)), OldPath));
  ASSERT_TRUE(writeTrace(
      traceOf(valueDiverseSource(11), nullptr, iterations(2000)), NewPath));

  // The diff-traces path: one fresh interner for both files.
  Telemetry::get().reset();
  Telemetry::get().setEnabled(true);
  auto Session = std::make_shared<StringInterner>();
  Expected<Trace> Left = readTrace(OldPath, Session);
  ASSERT_TRUE(bool(Left)) << Left.error().render();
  Expected<Trace> Right = readTrace(NewPath, Session);
  ASSERT_TRUE(bool(Right)) << Right.error().render();
  TelemetrySnapshot Snap = Telemetry::get().snapshot();
  Telemetry::get().setEnabled(false);
  Telemetry::get().reset();

  // Both string tables hold the same names, so the second file keeps its
  // symbol ids and borrows every column, fingerprints included.
  EXPECT_EQ(Snap.counter("load.fp_recompute"), 0u);
  EXPECT_TRUE(Right->Fps.borrowed());
  EXPECT_TRUE(Right->Values.borrowed());

  std::string FromFiles = viewsDiff(*Left, *Right, Options).render(50, 12);
  EXPECT_EQ(FromFiles, InMemory);
  std::remove(OldPath.c_str());
  std::remove(NewPath.c_str());
}

//===----------------------------------------------------------------------===//
// Compact entries: object table, argument offsets, child-tid side table
//===----------------------------------------------------------------------===//

/// Field-by-field equality of one materialized entry across two traces
/// that may use different interners (symbols compare by text).
void expectSameEntry(const Trace &A, const Trace &B, uint32_t Eid) {
  TraceEntry EA = A.entry(Eid), EB = B.entry(Eid);
  auto Text = [](const Trace &T, Symbol S) { return T.Strings->text(S); };
  auto SameObj = [&](const ObjRepr &X, const ObjRepr &Y) {
    return X.ValueHash == Y.ValueHash && X.Loc == Y.Loc &&
           Text(A, X.ClassName) == Text(B, Y.ClassName) &&
           X.CreationSeq == Y.CreationSeq && X.HasRepr == Y.HasRepr;
  };
  auto SameValue = [&](const ValueRepr &X, const ValueRepr &Y) {
    return X.Kind == Y.Kind && X.Bits == Y.Bits &&
           Text(A, X.Text) == Text(B, Y.Text);
  };
  SCOPED_TRACE("entry " + std::to_string(Eid) + ": " + A.renderEntry(Eid));
  EXPECT_EQ(EA.Eid, EB.Eid);
  EXPECT_EQ(EA.Tid, EB.Tid);
  EXPECT_EQ(Text(A, EA.Method), Text(B, EB.Method));
  EXPECT_TRUE(SameObj(EA.Self, EB.Self));
  EXPECT_EQ(EA.Ev.Kind, EB.Ev.Kind);
  EXPECT_EQ(Text(A, EA.Ev.Name), Text(B, EB.Ev.Name));
  EXPECT_TRUE(SameObj(EA.Ev.Target, EB.Ev.Target));
  EXPECT_TRUE(SameValue(EA.Ev.Value, EB.Ev.Value));
  EXPECT_EQ(EA.Ev.ArgsBegin, EB.Ev.ArgsBegin);
  EXPECT_EQ(EA.Ev.ArgsEnd, EB.Ev.ArgsEnd);
  for (uint32_t K = EA.Ev.ArgsBegin; K != EA.Ev.ArgsEnd; ++K)
    EXPECT_TRUE(SameValue(A.ArgPool[K], B.ArgPool[K])) << "argument " << K;
  EXPECT_EQ(EA.Ev.ChildTid, EB.Ev.ChildTid);
  EXPECT_EQ(EA.Prov, EB.Prov);
  EXPECT_EQ(A.renderEntry(Eid), B.renderEntry(Eid));
}

TEST(CompactLayout, GeneratedPairsRoundTripEntryForEntryUnderRemap) {
  // Per seed: a base program and a perturbed one, recorded in one
  // interner, written, and loaded into an interner whose ids are all
  // shifted (so every symbol, class names of object rows included, is
  // remapped). Every entry materializes as before, and the loaded pair
  // diffs to the same report and compare-op total as the recorded pair.
  for (uint64_t Seed = 1; Seed <= 20; ++Seed) {
    SCOPED_TRACE("seed " + std::to_string(Seed));
    GeneratorOptions G;
    G.NumClasses = 3;
    G.OuterIters = 6;
    G.NumThreads = 1 + Seed % 3;
    G.Seed = Seed;
    G.ReorderBlock = Seed % 4 == 0;
    auto Live = std::make_shared<StringInterner>();
    Trace L = traceOf(generateProgram(G), Live);
    G.Perturb = 1 + Seed % 3;
    Trace R = traceOf(generateProgram(G), Live);
    ASSERT_GT(L.size(), 0u);

    std::string LPath = tempPath("compact_l"), RPath = tempPath("compact_r");
    ASSERT_TRUE(writeTrace(L, LPath));
    ASSERT_TRUE(writeTrace(R, RPath));
    auto Remapped = std::make_shared<StringInterner>();
    Remapped->intern("shifts-every-file-symbol-id");
    Expected<Trace> LL = readTrace(LPath, Remapped);
    Expected<Trace> RL = readTrace(RPath, Remapped);
    std::remove(LPath.c_str());
    std::remove(RPath.c_str());
    ASSERT_TRUE(bool(LL)) << LL.error().render();
    ASSERT_TRUE(bool(RL)) << RL.error().render();
    ASSERT_FALSE(LL->Methods.borrowed()) << "the load did not remap";

    for (const auto &[Orig, Loaded] :
         {std::pair<const Trace *, const Trace *>{&L, &*LL}, {&R, &*RL}}) {
      ASSERT_EQ(Orig->size(), Loaded->size());
      EXPECT_EQ(Orig->Objects.size(), Loaded->Objects.size());
      for (uint32_t Eid = 0; Eid != Orig->size(); ++Eid)
        expectSameEntry(*Orig, *Loaded, Eid);
    }

    DiffResult Recorded = viewsDiff(L, R, ViewsDiffOptions());
    DiffResult FromFiles = viewsDiff(*LL, *RL, ViewsDiffOptions());
    EXPECT_EQ(Recorded.render(50, 12), FromFiles.render(50, 12));
    EXPECT_EQ(Recorded.Stats.CompareOps, FromFiles.Stats.CompareOps);
  }
}

TEST(CompactLayout, NoLocationRepeatsAByteEqualObjectRow) {
  // The recorder adds an object row only when a location's representation
  // changes: a memo hit or a recomputation that yields the same bytes
  // keeps the row. Multi-threaded programs invalidate the memo on every
  // store (the global version), so they exercise the second case.
  for (unsigned Threads : {1u, 4u}) {
    GeneratorOptions G;
    G.OuterIters = 20;
    G.NumThreads = Threads;
    Trace T = traceOf(generateProgram(G));
    SCOPED_TRACE("threads " + std::to_string(Threads));
    ASSERT_GT(T.size(), 0u);
    ASSERT_GT(T.Objects.size(), 0u);
    EXPECT_TRUE(T.Objects[0].isNone()) << "row 0 is the no-object row";
    std::map<uint32_t, uint32_t> LastRowOf;
    for (uint32_t Row = 0; Row != T.Objects.size(); ++Row) {
      const ObjRepr &Obj = T.Objects[Row];
      auto [It, First] = LastRowOf.try_emplace(Obj.Loc, Row);
      if (!First) {
        EXPECT_NE(0, std::memcmp(&T.Objects[It->second], &Obj, sizeof(Obj)))
            << "location " << Obj.Loc << " rows " << It->second << ", "
            << Row;
        It->second = Row;
      }
    }
    // Far fewer rows than the receivers and targets they stand for.
    EXPECT_LT(T.Objects.size(), T.size());
  }
}

TEST(CompactLayout, ArgumentOffsetsAndChildTidsMatchTheEvents) {
  Trace T = traceOf(R"(
    class W { Int n; W(Int n) { this.n = n; }
      Int add(Int a, Int b) { return a + b + this.n; } }
    main { var w = new W(1); w.add(2, 3); spawn w.add(4, 5); }
  )");
  ASSERT_EQ(T.ArgOffsets.size(), T.size() + 1);
  EXPECT_EQ(T.ArgOffsets[0], 0u);
  EXPECT_EQ(T.ArgOffsets[T.size()], T.ArgPool.size());
  size_t Forks = 0, Ends = 0;
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    EXPECT_LE(T.ArgOffsets[Eid], T.ArgOffsets[Eid + 1]);
    EventKind Kind = T.kind(Eid);
    if (Kind != EventKind::Call && Kind != EventKind::Init) {
      EXPECT_EQ(T.numArgs(Eid), 0u) << T.renderEntry(Eid);
    }
    Forks += Kind == EventKind::Fork;
    Ends += Kind == EventKind::End;
  }
  ASSERT_EQ(Forks, 1u);
  ASSERT_EQ(T.ChildTidTable.size(), Forks + Ends);
  for (const ChildTidRow &Row : T.ChildTidTable) {
    EventKind Kind = T.kind(Row.Eid);
    EXPECT_TRUE(Kind == EventKind::Fork || Kind == EventKind::End);
    EXPECT_EQ(T.childTid(Row.Eid), Row.Tid);
    EXPECT_LT(Row.Tid, T.Threads.size());
  }
  EXPECT_EQ(T.childTid(0), 0u) << "entries without a row read tid 0";
}

//===----------------------------------------------------------------------===//
// Format versions
//===----------------------------------------------------------------------===//

TEST(FormatVersion, FilesFromBeforeInlinePayloadsAreUnsupported) {
  Trace T = traceOf("class A { Int x; A(Int x) { this.x = x; } } "
                    "main { var a = new A(5); print(a.x); }");
  std::string Path = tempPath("oldver");
  ASSERT_TRUE(writeTrace(T, Path));
  std::string Good = readFileBytes(Path);
  ASSERT_GE(Good.size(), 8u);
  // 1-2 (stream layout), 3 and 5 (whole-trace layout), 4 (this layout
  // before scalar payloads moved inline and the checksums changed) and 6
  // (inline object representations, begin/end argument columns) are
  // retired: a typed version error, not a misleading checksum mismatch.
  for (uint32_t OldVersion : {1u, 2u, 3u, 4u, 5u, 6u}) {
    SCOPED_TRACE("version " + std::to_string(OldVersion));
    std::string Bytes = Good;
    std::memcpy(Bytes.data() + 4, &OldVersion, 4);
    std::ofstream(Path, std::ios::binary | std::ios::trunc) << Bytes;
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded));
    EXPECT_EQ(Loaded.error().Code, "trace.version");
    EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt);
  }
  std::remove(Path.c_str());
}

} // namespace
