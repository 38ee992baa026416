//===- tests/CacheTest.cpp - View-index persistence tests -----------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pins the warm-path contract of the persisted view index: a view web
/// reconstructed from a trace's ViewIndex — computed in memory or
/// round-tripped through the trace-file sections — is *identical* to one
/// built by scanning the entries (randomized over generated workloads),
/// and damaged index sections are rejected, never half-used.
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "support/Telemetry.h"
#include "trace/Serialize.h"
#include "trace/ViewIndex.h"
#include "views/Views.h"
#include "workload/Generator.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <random>

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

std::string tempPath(const std::string &Tag) {
  return "/tmp/rprism_cachetest_" + Tag + "_" + std::to_string(::getpid());
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

/// Structural equality of two webs over the same trace: same views in the
/// same order with the same identities and entry lists.
void expectWebsEqual(const ViewWeb &A, const ViewWeb &B) {
  ASSERT_EQ(A.numViews(), B.numViews());
  for (uint32_t Id = 0; Id != A.numViews(); ++Id) {
    const View &VA = A.view(Id);
    const View &VB = B.view(Id);
    EXPECT_EQ(VA.Type, VB.Type) << "view " << Id;
    EXPECT_EQ(VA.Id, VB.Id) << "view " << Id;
    EXPECT_EQ(VA.Tid, VB.Tid) << "view " << Id;
    EXPECT_EQ(VA.MethodName.Id, VB.MethodName.Id) << "view " << Id;
    EXPECT_EQ(VA.Loc, VB.Loc) << "view " << Id;
    // Both builds copy the endpoint representations out of the same
    // columns, so they must agree bit for bit (ObjRepr is a packed POD).
    EXPECT_EQ(0, std::memcmp(&VA.FirstRepr, &VB.FirstRepr, sizeof(ObjRepr)))
        << "view " << Id;
    EXPECT_EQ(0, std::memcmp(&VA.LastRepr, &VB.LastRepr, sizeof(ObjRepr)))
        << "view " << Id;
    ASSERT_EQ(VA.Entries.size(), VB.Entries.size()) << "view " << Id;
    EXPECT_TRUE(std::equal(VA.Entries.begin(), VA.Entries.end(),
                           VB.Entries.begin()))
        << "view " << Id;
  }
  EXPECT_EQ(A.numThreadViews(), B.numThreadViews());
  EXPECT_EQ(A.numMethodViews(), B.numMethodViews());
  EXPECT_EQ(A.numTargetObjectViews(), B.numTargetObjectViews());
  EXPECT_EQ(A.numActiveObjectViews(), B.numActiveObjectViews());
}

/// A generated-workload trace for one drawn configuration.
Trace generatedTrace(std::mt19937_64 &Rng,
                     std::shared_ptr<StringInterner> Strings = nullptr) {
  GeneratorOptions G;
  G.NumClasses = 2 + static_cast<unsigned>(Rng() % 4);
  G.OuterIters = 4 + static_cast<unsigned>(Rng() % 24);
  G.NumThreads = 1 + static_cast<unsigned>(Rng() % 3);
  G.Seed = Rng();
  G.Perturb = static_cast<unsigned>(Rng() % 3);
  G.ReorderBlock = (Rng() % 2) != 0;
  return traceOf(generateProgram(G), std::move(Strings));
}

const char *ObjectsProgram = R"(
  class Acc {
    Int total;
    Acc(Int start) { this.total = start; }
    Int add(Int v) { this.total = this.total + v; return this.total; }
  }
  main {
    var a = new Acc(0);
    var b = new Acc(10);
    a.add(1); b.add(2); a.add(3);
    print(a.total + b.total);
  }
)";

//===----------------------------------------------------------------------===//
// Property: index-reconstructed webs are identical to fresh builds
//===----------------------------------------------------------------------===//

TEST(ViewIndexProperty, ReconstructedWebMatchesFreshBuild) {
  // Randomized but reproducible: each drawn workload varies classes,
  // iterations, thread count, perturbation, and reordering.
  std::mt19937_64 Rng(20260807);
  for (int Round = 0; Round != 8; ++Round) {
    Trace T = generatedTrace(Rng);
    ASSERT_GT(T.size(), 0u) << "round " << Round;
    T.ViewIdx = computeViewIndex(T);
    ASSERT_TRUE(T.ViewIdx.Present);
    EXPECT_TRUE(viewIndexIsValid(T.ViewIdx, T.size())) << "round " << Round;

    ViewWeb Fresh(T, /*UseIndex=*/false);
    ViewWeb FromIndex(T, /*UseIndex=*/true);
    expectWebsEqual(Fresh, FromIndex);
  }
}

TEST(ViewIndexProperty, RoundTripThroughTraceFileMatchesFreshBuild) {
  std::mt19937_64 Rng(42);
  for (int Round = 0; Round != 4; ++Round) {
    Trace T = generatedTrace(Rng);
    std::string Path = tempPath("prop_" + std::to_string(Round));
    ASSERT_TRUE(writeTrace(T, Path));

    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
    ASSERT_TRUE(Loaded->ViewIdx.Present);
    EXPECT_TRUE(viewIndexIsValid(Loaded->ViewIdx, Loaded->size()));

    ViewWeb Fresh(*Loaded, /*UseIndex=*/false);
    ViewWeb FromIndex(*Loaded, /*UseIndex=*/true);
    expectWebsEqual(Fresh, FromIndex);
    std::remove(Path.c_str());
  }
}

TEST(ViewIndexProperty, IndexSurvivesSymbolRemapIntoBusyInterner) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("remap");
  ASSERT_TRUE(writeTrace(T, Path));
  // A pre-occupied interner shifts every symbol id: the loader takes the
  // remap path, rewrites the index's method-view keys, and the
  // reconstructed web must still match a fresh build over the remapped
  // columns.
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-one");
  Busy->intern("occupying-symbol-id-two");
  Expected<Trace> Loaded = readTrace(Path, Busy);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  ASSERT_TRUE(Loaded->ViewIdx.Present);

  ViewWeb Fresh(*Loaded, /*UseIndex=*/false);
  ViewWeb FromIndex(*Loaded, /*UseIndex=*/true);
  expectWebsEqual(Fresh, FromIndex);
  std::remove(Path.c_str());
}

TEST(ViewIndexProperty, AppendingInvalidatesTheIndex) {
  Trace T = traceOf(ObjectsProgram);
  T.ViewIdx = computeViewIndex(T);
  ASSERT_TRUE(T.ViewIdx.Present);
  // Any append makes the index stale; the trace must drop it rather than
  // let a web be reconstructed without the new entries.
  T.append(T.entry(0));
  EXPECT_FALSE(T.ViewIdx.Present);
}

//===----------------------------------------------------------------------===//
// Serialization: optional sections, rejection of damage
//===----------------------------------------------------------------------===//

/// Where section \p Id of a one-segment trace file sits: the segment
/// header follows the 32-byte file header, its 32-byte section records
/// (id/pad/offset/length/checksum) follow that, and payload offsets are
/// relative to the segment header. RecordPos is -1 when absent.
struct SectionPos {
  long RecordPos = -1;
  long Offset = 0; ///< Absolute payload offset.
  long Length = 0;
};

SectionPos findSection(const std::string &Path, uint32_t Id) {
  SectionPos Pos;
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  EXPECT_TRUE(F != nullptr) << Path;
  if (!F)
    return Pos;
  uint32_t NumSections = 0;
  std::fseek(F, 32 + 20, SEEK_SET);
  if (std::fread(&NumSections, 4, 1, F) != 1)
    NumSections = 0;
  for (uint32_t I = 0; I != NumSections; ++I) {
    long Record = 64 + static_cast<long>(I) * 32;
    uint8_t Bytes[32];
    std::fseek(F, Record, SEEK_SET);
    if (std::fread(Bytes, 1, 32, F) != 32)
      break;
    uint32_t RecordId;
    uint64_t Offset, Length;
    std::memcpy(&RecordId, Bytes, 4);
    std::memcpy(&Offset, Bytes + 8, 8);
    std::memcpy(&Length, Bytes + 16, 8);
    if (RecordId == Id) {
      Pos = {Record, 32 + static_cast<long>(Offset),
             static_cast<long>(Length)};
      break;
    }
  }
  std::fclose(F);
  return Pos;
}

TEST(ViewIndexSerialize, FileWithoutIndexLoadsWithNoIndex) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("noindex");
  ASSERT_TRUE(writeTrace(T, Path, /*WithViewIndex=*/false));
  Expected<Trace> Loaded = readTrace(Path, nullptr);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  // The cold path still works and web-building is unaffected.
  ViewWeb Fresh(T, /*UseIndex=*/false);
  ViewWeb Web(*Loaded);
  expectWebsEqual(Fresh, Web);
  std::remove(Path.c_str());
}

TEST(ViewIndexSerialize, IndexedFileIsBiggerButSameTrace) {
  Trace T = traceOf(ObjectsProgram);
  std::string WithPath = tempPath("with_idx");
  std::string WithoutPath = tempPath("without_idx");
  ASSERT_TRUE(writeTrace(T, WithPath, /*WithViewIndex=*/true));
  ASSERT_TRUE(writeTrace(T, WithoutPath, /*WithViewIndex=*/false));

  auto FileSize = [](const std::string &P) -> long {
    std::FILE *F = std::fopen(P.c_str(), "rb");
    EXPECT_TRUE(F != nullptr);
    std::fseek(F, 0, SEEK_END);
    long Size = std::ftell(F);
    std::fclose(F);
    return Size;
  };
  EXPECT_GT(FileSize(WithPath), FileSize(WithoutPath));

  Expected<Trace> A = readTrace(WithPath, nullptr);
  Expected<Trace> B = readTrace(WithoutPath, nullptr);
  ASSERT_TRUE(bool(A) && bool(B));
  ASSERT_EQ(A->size(), B->size());
  for (uint32_t Eid = 0; Eid != A->size(); ++Eid)
    EXPECT_EQ(A->renderEntry(Eid), B->renderEntry(Eid));
  std::remove(WithPath.c_str());
  std::remove(WithoutPath.c_str());
}

TEST(ViewIndexSerialize, CorruptIndexPayloadDegradesToColumnRebuild) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("badidx");
  ASSERT_TRUE(writeTrace(T, Path));
  // Flipping the last byte of the view-entries payload trips its section
  // checksum. The index is derived data: the load must succeed without it
  // (first rung of the degradation ladder) and count the drop.
  SectionPos Entries = findSection(Path, 23);
  ASSERT_GE(Entries.RecordPos, 0);
  ASSERT_GT(Entries.Length, 0);
  std::FILE *F = std::fopen(Path.c_str(), "rb+");
  ASSERT_TRUE(F != nullptr);
  std::fseek(F, Entries.Offset + Entries.Length - 1, SEEK_SET);
  int Byte = std::fgetc(F);
  std::fseek(F, Entries.Offset + Entries.Length - 1, SEEK_SET);
  std::fputc(Byte ^ 0xff, F);
  std::fclose(F);

  TelemetryWindow W;
  TraceReadReport Report;
  ReadOptions Options;
  Options.Report = &Report;
  Expected<Trace> Loaded = readTrace(Path, nullptr, Options);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_FALSE(Report.Salvaged);
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  // The web rebuilt from the columns matches a fresh build exactly.
  ViewWeb Fresh(T, /*UseIndex=*/false);
  ViewWeb Web(*Loaded);
  expectWebsEqual(Fresh, Web);
  std::remove(Path.c_str());
}

TEST(ViewIndexSerialize, MetaWithoutEntriesDropsIndex) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("halfidx");
  ASSERT_TRUE(writeTrace(T, Path));

  // Rewrite the view-entries section record's id (23) to an unknown id:
  // the reader skips unknown sections for forward compatibility, so it
  // sees view-meta without view-entries — a structurally damaged index,
  // which must be dropped whole, never half-used.
  SectionPos Entries = findSection(Path, 23);
  ASSERT_GE(Entries.RecordPos, 0) << "view-entries section not found";
  std::FILE *F = std::fopen(Path.c_str(), "rb+");
  ASSERT_TRUE(F != nullptr);
  uint32_t Unknown = 63;
  std::fseek(F, Entries.RecordPos, SEEK_SET);
  ASSERT_EQ(std::fwrite(&Unknown, 4, 1, F), 1u);
  std::fclose(F);

  TelemetryWindow W;
  TraceReadReport Report;
  ReadOptions Options;
  Options.Report = &Report;
  Expected<Trace> Loaded = readTrace(Path, nullptr, Options);
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  EXPECT_FALSE(Loaded->ViewIdx.Present);
  EXPECT_TRUE(Report.ViewIndexDropped);
  EXPECT_EQ(W.counter("robust.view_index_dropped"), 1u);
  EXPECT_EQ(Loaded->size(), T.size());
  std::remove(Path.c_str());
}

TEST(ViewIndexSerialize, TruncatedIndexedFiles) {
  Trace T = traceOf(ObjectsProgram);
  std::string Path = tempPath("truncidx");
  ASSERT_TRUE(writeTrace(T, Path));
  std::FILE *F = std::fopen(Path.c_str(), "rb");
  std::fseek(F, 0, SEEK_END);
  long Size = std::ftell(F);
  std::fclose(F);
  // Cuts inside the trailing index sections lose the directory, so strict
  // reads refuse; salvage drops the index and still loads in full.
  SectionPos Entries = findSection(Path, 23);
  ASSERT_GT(Entries.Length, 8);
  long EntriesEnd = Entries.Offset + Entries.Length;
  ASSERT_LT(EntriesEnd, Size);
  for (long Cut : {EntriesEnd - 1, EntriesEnd - 9}) {
    ASSERT_TRUE(truncate(Path.c_str(), Cut) == 0);
    ASSERT_FALSE(bool(readTrace(Path, nullptr))) << "cut at " << Cut;
    TraceReadReport Report;
    ReadOptions Options;
    Options.Salvage = true;
    Options.Report = &Report;
    Expected<Trace> Loaded = readTrace(Path, nullptr, Options);
    ASSERT_TRUE(bool(Loaded)) << "cut at " << Cut << ": "
                              << Loaded.error().render();
    EXPECT_FALSE(Loaded->ViewIdx.Present) << "cut at " << Cut;
    EXPECT_TRUE(Report.ViewIndexDropped) << "cut at " << Cut;
    EXPECT_EQ(Loaded->size(), T.size()) << "cut at " << Cut;
    EXPECT_EQ(Report.EntriesDropped, 0u) << "cut at " << Cut;
  }
  // Cuts inside the core payloads or the section table still fail cleanly.
  for (long Cut : {Size / 2, long(24)}) {
    ASSERT_TRUE(truncate(Path.c_str(), Cut) == 0);
    Expected<Trace> Loaded = readTrace(Path, nullptr);
    ASSERT_FALSE(bool(Loaded)) << "cut at " << Cut;
    EXPECT_EQ(Loaded.error().Class, ErrClass::Corrupt) << "cut at " << Cut;
  }
  std::remove(Path.c_str());
}

} // namespace
