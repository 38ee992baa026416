//===- trace/Serialize.cpp ------------------------------------------------===//

#include "trace/Serialize.h"

#include "robustness/FaultInjector.h"
#include "robustness/Retry.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "trace/TraceError.h"
#include "trace/ViewIndex.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#if defined(__unix__) || defined(__APPLE__)
#define RPRISM_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

using namespace rprism;

namespace {

constexpr uint32_t TraceMagic = 0x52505452; // "RPTR"
// Version history:
//   1, 2 — one sequential field stream per entry (2 added fingerprints,
//          recomputed on load).
//   3 — whole-trace sectioned columnar layout: header, section table,
//       8-byte-aligned column payloads, per-section FNV-1a checksums.
//   4 — the segmented layout described below, FNV-1a checksums.
//   5 — the v3 layout with inline scalar payloads (ValueRepr::Bits, no
//       interned text) and checksumBytes digests.
//   6 — the segmented layout with those two changes. The only version
//       written or read: a whole trace is a file with one segment.
// Every other version word is rejected as unsupported: the value words and
// checksums of older files mean something else, and a typed version error
// says so where a checksum mismatch would mislead.
constexpr uint32_t TraceVersion = 6;

/// Section ids. Entry columns are parallel arrays of exactly the segment's
/// entry count many elements; side sections have their own framing.
enum SectionId : uint32_t {
  SecName = 1,       ///< Raw bytes of Trace::Name (segment 0 only).
  SecTid = 10,       ///< uint32_t[]
  SecMethod = 11,    ///< Symbol[]
  SecSelf = 12,      ///< ObjRepr[]
  SecKind = 13,      ///< uint8_t[]
  SecEvName = 14,    ///< Symbol[]
  SecTarget = 15,    ///< ObjRepr[]
  SecValue = 16,     ///< ValueRepr[]
  SecArgsBegin = 17, ///< uint32_t[]
  SecArgsEnd = 18,   ///< uint32_t[]
  SecChildTid = 19,  ///< uint32_t[]
  SecProv = 20,      ///< uint32_t[]
  SecFp = 21,        ///< uint64_t[] (optional fingerprint lane)
  // Optional persisted view partitioning (see trace/ViewIndex.h), as a
  // delta over the segment's entries with global entry ids. Both sections
  // appear together or not at all.
  SecViewMeta = 22,    ///< Per family: u32 count, keys[], counts[].
  SecViewEntries = 23, ///< uint32_t[]: flat per-view entry-id lists.
  // Side-table deltas: the strings/threads interned since the previous
  // seal and the argument-pool slice the segment's entries reference, so
  // a sealed prefix is self-contained and never rewritten.
  SecStrDelta = 24,    ///< u32 base, u32 count, count x (u32 len, bytes).
  SecThreadDelta = 25, ///< u32 base, u32 count, ThreadInfo records.
  SecArgSlice = 26,    ///< u64 pool base (elements), then ValueRepr[].
};

/// Largest section id this reader understands; higher ids are skipped for
/// forward compatibility.
constexpr uint32_t MaxSectionId = SecArgSlice;

constexpr size_t SectionRecordBytes = 32; // id, pad, offset, length, checksum
constexpr uint32_t MaxSections = 64;

// --- Framing ---------------------------------------------------------------
// A file is a 32-byte file header, then fixed-entry-count segments, each
// framed as a segment header + section table + 8-byte-aligned payloads with
// per-section checksums, closed by a footer segment directory and a fixed
// trailer. Independent per-segment checksums are the point: damage confined
// to one segment's entry columns costs exactly that segment under
// --salvage, and a recorder can seal segments while still appending.
constexpr uint32_t SegMagic = 0x52505347;     // "RPSG", leads every segment
constexpr uint32_t FooterMagic = 0x52504654;  // "RPFT", leads the directory
constexpr uint32_t TrailerMagic = 0x52505445; // "RPTE", ends the file
// File header: magic, version, flags, segment-target entries, 2 x u64
// reserved. Segment header: seg magic, index, u64 begin eid, num entries,
// num sections, u64 payload bytes (table + padding + payloads, 8-aligned —
// the next segment starts exactly payload-bytes after the header ends).
constexpr size_t SegFileHeaderBytes = 32;
constexpr size_t SegHeaderBytes = 32;
// Directory record: u64 offset, u64 table digest, u64 lane digest,
// u32 begin eid, u32 num entries.
constexpr size_t SegDirRecordBytes = 32;
// Trailer: u64 footer offset, u64 footer checksum, u32 num segments,
// u32 trailer magic.
constexpr size_t SegTrailerBytes = 24;

/// Little buffered binary writer over stdio. Every byte it writes counts
/// toward the `write.bytes` counter (added once, when the file closes).
class Writer {
public:
  explicit Writer(const std::string &Path)
      : File(std::fopen(Path.c_str(), "wb")) {}
  ~Writer() {
    if (File)
      std::fclose(File);
    Telemetry::counterAdd("write.bytes", Written);
  }

  bool ok() const { return File && !Error; }

  void u32(uint32_t V) { raw(&V, sizeof(V)); }
  void u64(uint64_t V) { raw(&V, sizeof(V)); }
  void raw(const void *Data, size_t Size) {
    if (!File || Error)
      return;
    if (Size && std::fwrite(Data, 1, Size, File) != Size)
      Error = true;
    Written += Size;
  }
  void zeros(size_t Size) {
    static const char Pad[8] = {0};
    while (Size && ok()) {
      size_t Chunk = Size < sizeof(Pad) ? Size : sizeof(Pad);
      raw(Pad, Chunk);
      Size -= Chunk;
    }
  }

private:
  std::FILE *File;
  bool Error = false;
  uint64_t Written = 0;
};

/// Growable byte buffer for the serialized (non-column) sections.
struct ByteBuffer {
  std::string Out;

  void u32(uint32_t V) { Out.append(reinterpret_cast<const char *>(&V), 4); }
  void u64(uint64_t V) { Out.append(reinterpret_cast<const char *>(&V), 8); }
  void str(const std::string &S) {
    u32(static_cast<uint32_t>(S.size()));
    Out.append(S);
  }
};

/// Bounds-checked, memcpy-based cursor over an untrusted byte range (the
/// serialized sections of a mapped trace file). Never forms references into
/// the mapped memory; all reads copy out, so truncated or misaligned data
/// cannot cause UB.
class ByteCursor {
public:
  ByteCursor(const uint8_t *Data, size_t Size) : Ptr(Data), Remaining(Size) {}

  bool ok() const { return !Error; }
  bool atEnd() const { return Remaining == 0; }

  uint32_t u32() {
    uint32_t V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  uint64_t u64() {
    uint64_t V = 0;
    raw(&V, sizeof(V));
    return V;
  }
  std::string str() {
    uint32_t Size = u32();
    if (Error || Size > Remaining) {
      Error = true;
      return "";
    }
    std::string S(reinterpret_cast<const char *>(Ptr), Size);
    Ptr += Size;
    Remaining -= Size;
    return S;
  }

private:
  void raw(void *Out, size_t Size) {
    if (Error || Size > Remaining) {
      Error = true;
      return;
    }
    std::memcpy(Out, Ptr, Size);
    Ptr += Size;
    Remaining -= Size;
  }

  const uint8_t *Ptr;
  size_t Remaining;
  bool Error = false;
};

/// One payload a segment carries: raw bytes, possibly a view into a
/// column (Data) or into a serialized side buffer.
struct SectionOut {
  uint32_t Id;
  const void *Data;
  uint64_t Length;
};

/// The checksum of every payload, under the write's `checksum` span.
std::vector<uint64_t>
sectionChecksums(const std::vector<SectionOut> &Sections) {
  TelemetrySpan Span("checksum");
  std::vector<uint64_t> Sums(Sections.size());
  for (size_t I = 0; I != Sections.size(); ++I)
    Sums[I] = checksumBytes(Sections[I].Data, Sections[I].Length);
  return Sums;
}

/// The bytes of a trace file, either mmap'd or read into an arena.
/// `Holder` keeps the bytes alive (and unmaps/frees on release).
struct FileBytes {
  std::shared_ptr<void> Holder;
  const uint8_t *Data = nullptr;
  size_t Size = 0;
  bool Mapped = false;
};

/// How a load attempt ended. NotFound is terminal (retrying cannot create
/// the file); Error covers everything transient-looking and is retried.
enum class IoStatus { Ok, NotFound, Error };

IoStatus loadFileBytesOnce(const std::string &Path, FileBytes &Out) {
  if (FaultInjector::fire(FaultSite::FileOpen))
    return IoStatus::Error; // Injected EIO on open.
#if RPRISM_HAVE_MMAP
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return errno == ENOENT || errno == ENOTDIR ? IoStatus::NotFound
                                               : IoStatus::Error;
  struct stat St;
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    ::close(Fd);
    return IoStatus::Error;
  }
  size_t Size = static_cast<size_t>(St.st_size);
  if (Size == 0) {
    ::close(Fd);
    Out = FileBytes{std::shared_ptr<void>(), nullptr, 0, false};
    return IoStatus::Ok;
  }
  // An injected mmap failure exercises the arena fallback below.
  if (!FaultInjector::fire(FaultSite::FileMmap)) {
    void *Map = ::mmap(nullptr, Size, PROT_READ, MAP_PRIVATE, Fd, 0);
    if (Map != MAP_FAILED) {
      ::close(Fd); // The mapping survives the descriptor.
      Out.Holder = std::shared_ptr<void>(
          Map, [Size](void *P) { ::munmap(P, Size); });
      Out.Data = static_cast<const uint8_t *>(Map);
      Out.Size = Size;
      Out.Mapped = true;
      return IoStatus::Ok;
    }
  }
  ::close(Fd);
#endif
  // Fallback: one read into an arena. operator new guarantees alignment
  // for every fundamental type, which covers the 8-byte column elements.
  std::FILE *File = std::fopen(Path.c_str(), "rb");
  if (!File)
    return errno == ENOENT || errno == ENOTDIR ? IoStatus::NotFound
                                               : IoStatus::Error;
  std::fseek(File, 0, SEEK_END);
  long EndPos = std::ftell(File);
  if (EndPos < 0) {
    std::fclose(File);
    return IoStatus::Error;
  }
  size_t FileSize = static_cast<size_t>(EndPos);
  std::fseek(File, 0, SEEK_SET);
  std::shared_ptr<void> Arena(::operator new(FileSize ? FileSize : 1),
                              [](void *P) { ::operator delete(P); });
  size_t Got = FileSize ? std::fread(Arena.get(), 1, FileSize, File) : 0;
  std::fclose(File);
  if (Got != FileSize || FaultInjector::fire(FaultSite::FileRead))
    return IoStatus::Error; // Real or injected short read.
  // Injected in-flight bit flip: must be caught downstream by the section
  // checksums or the structural validation, never crash.
  FaultInjector::corruptByte(FaultSite::FileRead, Arena.get(), FileSize);
  Out.Holder = std::move(Arena);
  Out.Data = static_cast<const uint8_t *>(Out.Holder.get());
  Out.Size = FileSize;
  Out.Mapped = false;
  return IoStatus::Ok;
}

/// Degradation-ladder rung: transient I/O failures get a bounded retry
/// with backoff (robust.io_retry counts each retry) before surfacing.
/// The policy is the process-wide one (`--retry-policy` /
/// RPRISM_RETRY_POLICY), shared by the mmap and arena-read paths.
IoStatus loadFileBytes(const std::string &Path, FileBytes &Out) {
  IoStatus Status = IoStatus::Error;
  retryWithBackoff(
      ioRetryPolicy(),
      [&] {
        Status = loadFileBytesOnce(Path, Out);
        return Status != IoStatus::Error; // NotFound is terminal: no retry.
      },
      [](unsigned) { Telemetry::counterAdd("robust.io_retry"); });
  return Status;
}

/// A section as parsed from a segment's table: pointer into the file
/// bytes, recorded length, how many of its leading bytes are actually
/// present, and whether the payload is fully present and checksum-clean.
struct SectionIn {
  const uint8_t *Data = nullptr;
  uint64_t Length = 0; ///< Recorded payload length.
  uint64_t Avail = 0;  ///< Leading bytes of it present in the file.
  bool Present = false;
  bool Intact = false; ///< Fully present and checksum-verified.
};

/// The two view-index sections are derived data (rebuildable from the
/// columns), so damage to them degrades instead of failing the load.
bool isViewSection(uint32_t Id) {
  return Id == SecViewMeta || Id == SecViewEntries;
}

/// The required entry-column sections and their element sizes
/// (ChildTid's consumers bounds-check themselves).
struct ColumnSize {
  uint32_t Id;
  uint64_t ElemSize;
};
constexpr ColumnSize ColumnSizes[] = {
    {SecTid, 4},     {SecMethod, 4},   {SecSelf, 24},     {SecKind, 1},
    {SecEvName, 4},  {SecTarget, 24},  {SecValue, 16},    {SecArgsBegin, 4},
    {SecArgsEnd, 4}, {SecChildTid, 4}, {SecProv, 4},
};

/// One segment located in the file: its header fields and byte extent.
struct SegExtent {
  uint64_t Offset = 0; ///< Absolute offset of the segment header.
  uint64_t BeginEid = 0;
  uint32_t NumEntries = 0;
  uint32_t NumSections = 0;
  uint64_t PayloadBytes = 0;
  bool Truncated = false; ///< The file ends inside the payload.
};

/// Parses the segment header at \p Off. False when the bytes there cannot
/// be segment number \p Index of this file (wrong magic or index, bad
/// section count, extent out of bounds) — which is also how the salvage
/// chain-scan detects the end of the sealed-segment chain. A payload
/// running past the end of the file is flagged, not refused: the
/// segment's sections are read only up to the end of the file.
bool parseSegHeader(const FileBytes &File, uint64_t Off, uint32_t Index,
                    SegExtent &Out) {
  if (Off % 8 != 0 || Off > File.Size || File.Size - Off < SegHeaderBytes)
    return false;
  const uint8_t *P = File.Data + Off;
  uint32_t Magic, SegIndex, NumEntries, NumSections;
  uint64_t BeginEid, PayloadBytes;
  std::memcpy(&Magic, P, 4);
  std::memcpy(&SegIndex, P + 4, 4);
  std::memcpy(&BeginEid, P + 8, 8);
  std::memcpy(&NumEntries, P + 16, 4);
  std::memcpy(&NumSections, P + 20, 4);
  std::memcpy(&PayloadBytes, P + 24, 8);
  if (Magic != SegMagic || SegIndex != Index || NumSections == 0 ||
      NumSections > MaxSections ||
      PayloadBytes < uint64_t{NumSections} * SectionRecordBytes)
    return false;
  bool Truncated = PayloadBytes > File.Size - Off - SegHeaderBytes;
  Out = SegExtent{Off,         BeginEid,     NumEntries,
                  NumSections, PayloadBytes, Truncated};
  return true;
}

/// One segment's parsed section table; record offsets are relative to the
/// segment header. View-index damage is always degradable. Core damage is
/// fatal in strict mode (StrictErr holds the first, typed) and
/// per-section in salvage mode: the section reads as absent, as not
/// intact, or — where the file ends inside it — as an unverified prefix.
struct SegSections {
  SectionIn S[MaxSectionId + 1] = {};
  bool ViewDamaged = false;
  std::optional<Err> StrictErr;
};

SegSections parseSegSections(const std::string &Path, const FileBytes &File,
                             const SegExtent &Seg) {
  TelemetrySpan Span("verify");
  SegSections Out;
  uint64_t BytesVerified = 0;
  uint64_t DeclEnd = SegHeaderBytes + Seg.PayloadBytes;
  uint64_t AvailEnd = std::min(DeclEnd, File.Size - Seg.Offset);
  uint64_t TableEnd =
      SegHeaderBytes + uint64_t{Seg.NumSections} * SectionRecordBytes;
  auto StrictBad = [&Out](Err E) {
    if (!Out.StrictErr)
      Out.StrictErr = std::move(E);
  };
  for (uint32_t I = 0; I != Seg.NumSections; ++I) {
    uint64_t RecordAt = SegHeaderBytes + uint64_t{I} * SectionRecordBytes;
    if (RecordAt + SectionRecordBytes > AvailEnd) {
      StrictBad(TraceError::truncated(Path)); // The file ends in the table.
      break;
    }
    uint8_t Record[SectionRecordBytes];
    std::memcpy(Record, File.Data + Seg.Offset + RecordAt, SectionRecordBytes);
    uint32_t Id;
    uint64_t Offset, Length, Checksum;
    std::memcpy(&Id, Record, 4);
    std::memcpy(&Offset, Record + 8, 8);
    std::memcpy(&Length, Record + 16, 8);
    std::memcpy(&Checksum, Record + 24, 8);
    bool View = isViewSection(Id);
    if (Offset % 8 != 0 || Offset < TableEnd || Offset > DeclEnd ||
        Length > DeclEnd - Offset) {
      // The record itself is unusable: salvage treats the section as absent.
      if (View)
        Out.ViewDamaged = true;
      else
        StrictBad(TraceError::sectionBounds(Path, Id, Seg.Offset + Offset));
      continue;
    }
    if (Id > MaxSectionId)
      continue; // Unknown section: forward compatibility.
    if (Out.S[Id].Present) {
      if (View)
        Out.ViewDamaged = true;
      else
        StrictBad(TraceError::duplicateSection(Path, Id));
      continue; // Salvage keeps the first record seen.
    }
    const uint8_t *Data = File.Data + Seg.Offset + Offset;
    uint64_t Avail =
        Offset >= AvailEnd ? 0 : std::min(Length, AvailEnd - Offset);
    bool Intact = Avail == Length;
    if (Intact) {
      BytesVerified += Length;
      if (checksumBytes(Data, Length) != Checksum ||
          FaultInjector::fire(FaultSite::SectionChecksum)) {
        // Checksum mismatch (real or injected): the damage can be anywhere
        // in the payload, so unlike truncation no prefix is trustworthy.
        if (View) {
          Out.ViewDamaged = true;
          continue;
        }
        StrictBad(TraceError::sectionChecksum(Path, Id, Seg.Offset + Offset));
        Intact = false;
        Avail = 0;
      }
    } else {
      if (View) {
        Out.ViewDamaged = true;
        continue;
      }
      StrictBad(TraceError::truncated(Path));
    }
    Out.S[Id] = SectionIn{Data, Length, Avail, true, Intact};
  }
  Telemetry::counterAdd("load.bytes_verified", BytesVerified);
  return Out;
}

/// A segment whose entries (all, or a leading prefix under salvage)
/// survive the load.
struct KeptSegment {
  SegSections Secs;
  uint64_t N = 0;      ///< Entries recovered.
  bool Fps = false;    ///< Carries an intact fingerprint lane.
};

/// Reassembles the persisted view index from the kept segments' deltas.
/// Each delta carries global entry ids with views keyed in
/// first-appearance order, so appending every view's per-segment lists in
/// segment order reproduces computeViewIndex over the whole trace. A lone
/// segment's delta *is* the whole index: with \p Borrow its flat entry
/// lists stay in the file bytes. False when any delta is missing or
/// malformed.
bool assembleViewIndex(const std::vector<KeptSegment> &Kept,
                       size_t NumStrings, bool Borrow, ViewIndex &Out) {
  bool Single = Kept.size() == 1;
  std::unordered_map<uint32_t, uint32_t> Slot[NumViewFamilies];
  std::vector<uint32_t> MergeKeys[NumViewFamilies];
  std::vector<std::vector<uint32_t>> Lists[NumViewFamilies];
  for (const KeptSegment &K : Kept) {
    const SectionIn &Meta = K.Secs.S[SecViewMeta];
    const SectionIn &Flat = K.Secs.S[SecViewEntries];
    if (!Meta.Intact || !Flat.Intact || Flat.Length % 4 != 0)
      return false;
    const auto *Ids = reinterpret_cast<const uint32_t *>(Flat.Data);
    uint64_t FlatCount = Flat.Length / 4, FlatOff = 0;
    ByteCursor VC(Meta.Data, Meta.Length);
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      uint32_t NumViews = VC.u32();
      if (!VC.ok() || NumViews > K.N)
        return false;
      std::vector<uint32_t> Keys(NumViews);
      for (uint32_t V = 0; V != NumViews; ++V) {
        Keys[V] = VC.u32();
        // Method-view keys are symbol ids; validate them like any symbol.
        if (F == 1 && Keys[V] >= NumStrings)
          return false;
      }
      for (uint32_t V = 0; V != NumViews; ++V) {
        uint32_t Count = VC.u32();
        if (!VC.ok() || Count == 0 || Count > FlatCount - FlatOff)
          return false;
        if (Single) {
          Out.Keys[F].push_back(Keys[V]);
          Out.Counts[F].push_back(Count);
        } else {
          auto It = Slot[F].try_emplace(
              Keys[V], static_cast<uint32_t>(Lists[F].size()));
          if (It.second) {
            MergeKeys[F].push_back(Keys[V]);
            Lists[F].emplace_back();
          }
          std::vector<uint32_t> &List = Lists[F][It.first->second];
          List.insert(List.end(), Ids + FlatOff, Ids + FlatOff + Count);
        }
        FlatOff += Count;
      }
    }
    if (!VC.ok() || !VC.atEnd() || FlatOff != FlatCount)
      return false;
    if (Single && Borrow)
      Out.Entries.borrow(Ids, FlatCount);
    else if (Single)
      Out.Entries.append(Ids, FlatCount);
  }
  if (!Single) {
    size_t Total = 0;
    for (size_t F = 0; F != NumViewFamilies; ++F)
      for (const std::vector<uint32_t> &List : Lists[F])
        Total += List.size();
    Out.Entries.reserve(Total);
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      Out.Keys[F].append(MergeKeys[F].data(), MergeKeys[F].size());
      Out.Counts[F].reserve(Lists[F].size());
      for (const std::vector<uint32_t> &List : Lists[F]) {
        Out.Counts[F].push_back(static_cast<uint32_t>(List.size()));
        Out.Entries.append(List.data(), List.size());
      }
    }
  }
  Out.Present = true;
  return true;
}

Expected<Trace> readSegmented(const std::string &Path, const FileBytes &File,
                              std::shared_ptr<StringInterner> Strings,
                              const ReadOptions &Options) {
  const bool Salvage = Options.Salvage;
  auto Corrupt = [&](const char *What) {
    return TraceError::corruptSection(Path, What);
  };

  if (File.Size < SegFileHeaderBytes)
    return TraceError::truncated(Path);

  // Locate the segments: through the footer directory when the trailer,
  // footer checksum, and every directory record verify; otherwise (salvage
  // only) by chain-scanning segment headers from the top of the file —
  // each header declares its payload extent, so the chain recovers exactly
  // the sealed segments of an unfinalized or tail-truncated file, plus the
  // one the file ends inside. The directory's table digests are not
  // checked here: every section carries its own checksum, and damage to
  // one record must cost that section, not the whole file.
  std::vector<SegExtent> Segs;
  bool DirValid = false;
  [&] {
    TelemetrySpan VerifySpan("verify");
    if (File.Size < SegFileHeaderBytes + SegTrailerBytes)
      return;
    const uint8_t *Tr = File.Data + File.Size - SegTrailerBytes;
    uint64_t FooterOffset, FooterChecksum;
    uint32_t NumSegments, Magic;
    std::memcpy(&FooterOffset, Tr, 8);
    std::memcpy(&FooterChecksum, Tr + 8, 8);
    std::memcpy(&NumSegments, Tr + 16, 4);
    std::memcpy(&Magic, Tr + 20, 4);
    uint64_t FooterBytes = 8 + uint64_t{NumSegments} * SegDirRecordBytes;
    if (Magic != TrailerMagic || FooterOffset < SegFileHeaderBytes ||
        FooterOffset > File.Size - SegTrailerBytes ||
        FooterBytes > File.Size - SegTrailerBytes - FooterOffset)
      return;
    const uint8_t *F = File.Data + FooterOffset;
    if (checksumBytes(F, static_cast<size_t>(FooterBytes)) != FooterChecksum)
      return;
    uint32_t FMagic, FCount;
    std::memcpy(&FMagic, F, 4);
    std::memcpy(&FCount, F + 4, 4);
    if (FMagic != FooterMagic || FCount != NumSegments)
      return;
    for (uint32_t S = 0; S != NumSegments; ++S) {
      const uint8_t *R = F + 8 + S * SegDirRecordBytes;
      uint64_t Offset;
      uint32_t BeginEid, NumEntries;
      std::memcpy(&Offset, R, 8);
      std::memcpy(&BeginEid, R + 24, 4);
      std::memcpy(&NumEntries, R + 28, 4);
      SegExtent E;
      if (!parseSegHeader(File, Offset, S, E) || E.Truncated ||
          E.BeginEid != BeginEid || E.NumEntries != NumEntries) {
        Segs.clear();
        return;
      }
      Segs.push_back(E);
    }
    DirValid = true;
  }();

  bool Damaged = false;
  if (!DirValid) {
    if (!Salvage)
      return Corrupt("segment-directory");
    Damaged = true;
    uint64_t Off = SegFileHeaderBytes;
    for (uint32_t Index = 0;; ++Index) {
      SegExtent E;
      if (!parseSegHeader(File, Off, Index, E))
        break;
      Segs.push_back(E);
      if (E.Truncated)
        break;
      Off += SegHeaderBytes + E.PayloadBytes;
    }
    if (Segs.empty())
      return TraceError::unsalvageable(Path, "no intact segments");
  }

  Trace T;
  T.Strings = std::move(Strings);

  std::vector<Symbol> Map;
  bool Identity = true;
  std::vector<KeptSegment> Kept;
  /// Argument-pool slices in order; side deltas of a segment whose entries
  /// are dropped still apply, so every later segment resolves.
  std::vector<std::pair<const ValueRepr *, size_t>> PoolSlices;
  uint64_t PoolCount = 0;
  uint64_t DeclaredBefore = 0;
  uint64_t EntriesDropped = 0;
  uint64_t SegmentsDropped = 0;
  bool FileHasViewIndex = false;
  bool ViewDamaged = false;

  size_t SegI = 0;
  for (; SegI != Segs.size(); ++SegI) {
    const SegExtent &Seg = Segs[SegI];
    if (!Salvage && Seg.BeginEid != DeclaredBefore)
      return Corrupt("segment-header");
    DeclaredBefore += Seg.NumEntries;

    SegSections Parsed = parseSegSections(Path, File, Seg);
    if (Parsed.StrictErr) {
      if (!Salvage)
        return std::move(*Parsed.StrictErr);
      Damaged = true;
    }
    const SectionIn *S = Parsed.S;
    ViewDamaged |= Parsed.ViewDamaged;
    FileHasViewIndex |= Parsed.ViewDamaged || S[SecViewMeta].Present ||
                        S[SecViewEntries].Present;

    // The side deltas chain: each segment's string/thread/pool bases
    // continue where the previous seal stopped, so damage here makes every
    // later symbol id and pool offset unresolvable — the segment and the
    // entire suffix are dropped (strict mode already errored above).
    if (!S[SecStrDelta].Intact || !S[SecThreadDelta].Intact ||
        !S[SecArgSlice].Intact) {
      if (!Salvage)
        return Corrupt("segment-side-delta");
      break;
    }

    if (SegI == 0 && S[SecName].Intact)
      T.Name.assign(reinterpret_cast<const char *>(S[SecName].Data),
                    S[SecName].Length);

    // Strings delta: the base must continue the assembled table exactly.
    // The declared count is untrusted: every string costs at least its
    // 4-byte length prefix, so a count beyond Length/4 is corrupt.
    {
      TelemetrySpan InternSpan("intern");
      ByteCursor SC(S[SecStrDelta].Data, S[SecStrDelta].Length);
      uint32_t Base = SC.u32();
      uint32_t NumNew = SC.u32();
      bool Ok = SC.ok() && Base == Map.size() &&
                uint64_t{NumNew} <= S[SecStrDelta].Length / 4;
      if (Ok)
        Map.reserve(Map.size() + NumNew);
      for (uint32_t K = 0; Ok && K != NumNew; ++K) {
        std::string Str = SC.str();
        Ok = SC.ok();
        if (Ok) {
          Map.push_back(T.Strings->intern(Str));
          Identity &= Map.back().Id == Map.size() - 1;
        }
      }
      if (!Ok || !SC.atEnd()) {
        if (!Salvage)
          return Corrupt("string");
        break;
      }
    }

    // Threads delta.
    {
      ByteCursor TC(S[SecThreadDelta].Data, S[SecThreadDelta].Length);
      uint32_t Base = TC.u32();
      uint32_t NumNew = TC.u32();
      bool Ok = TC.ok() && Base == T.Threads.size();
      for (uint32_t K = 0; Ok && K != NumNew; ++K) {
        ThreadInfo Thread;
        Thread.Tid = TC.u32();
        Thread.ParentTid = TC.u32();
        uint32_t Method = TC.u32();
        Thread.AncestryHash = TC.u64();
        uint32_t StackSize = TC.u32();
        Ok = TC.ok() && Method < Map.size();
        if (Ok)
          Thread.EntryMethod = Map[Method];
        for (uint32_t J = 0; Ok && J != StackSize; ++J) {
          uint32_t Sym = TC.u32();
          Ok = TC.ok() && Sym < Map.size();
          if (Ok)
            Thread.SpawnStack.push_back(Map[Sym]);
        }
        if (Ok)
          T.Threads.push_back(std::move(Thread));
      }
      if (!Ok || !TC.atEnd()) {
        if (!Salvage)
          return Corrupt("thread");
        break;
      }
    }

    // Argument-pool slice: raw ValueRepr elements continuing the pool.
    {
      const SectionIn &AS = S[SecArgSlice];
      bool Ok = AS.Length >= 8 && (AS.Length - 8) % sizeof(ValueRepr) == 0;
      uint64_t PoolBase = 0;
      if (Ok) {
        std::memcpy(&PoolBase, AS.Data, 8);
        Ok = PoolBase == PoolCount;
      }
      uint64_t SliceCount = Ok ? (AS.Length - 8) / sizeof(ValueRepr) : 0;
      const auto *Slice = reinterpret_cast<const ValueRepr *>(AS.Data + 8);
      for (uint64_t K = 0; Ok && K != SliceCount; ++K)
        Ok = static_cast<uint8_t>(Slice[K].Kind) <= MaxReprKind &&
             Slice[K].Text.Id < Map.size();
      if (!Ok) {
        if (!Salvage)
          return Corrupt("argument-pool");
        break;
      }
      PoolSlices.emplace_back(Slice, static_cast<size_t>(SliceCount));
      PoolCount += SliceCount;
    }

    // Entry columns, then a validation scan over the untrusted values so
    // nothing downstream needs to distrust them (enum ranges, symbol ids,
    // argument slices). Strict mode demands every column carry exactly the
    // declared entry count. Salvage keeps the longest prefix every column
    // covers and validates: a checksum-failed column covers none, a column
    // the file ends inside covers its surviving bytes.
    uint64_t Declared = Seg.NumEntries;
    uint64_t N = Declared;
    for (const ColumnSize &Col : ColumnSizes) {
      const SectionIn &C = S[Col.Id];
      if (!Salvage && (!C.Present || C.Length != Declared * Col.ElemSize))
        return Corrupt("column");
      N = std::min(N, C.Avail / Col.ElemSize);
    }
    const uint8_t *Kinds = S[SecKind].Data;
    const auto *Methods = reinterpret_cast<const Symbol *>(S[SecMethod].Data);
    const auto *Names = reinterpret_cast<const Symbol *>(S[SecEvName].Data);
    const auto *Selfs = reinterpret_cast<const ObjRepr *>(S[SecSelf].Data);
    const auto *Targets = reinterpret_cast<const ObjRepr *>(S[SecTarget].Data);
    const auto *Values = reinterpret_cast<const ValueRepr *>(S[SecValue].Data);
    const auto *ArgsBegins =
        reinterpret_cast<const uint32_t *>(S[SecArgsBegin].Data);
    const auto *ArgsEnds =
        reinterpret_cast<const uint32_t *>(S[SecArgsEnd].Data);
    for (uint64_t K = 0; K != N; ++K) {
      const char *Bad = nullptr;
      if (Kinds[K] > MaxEventKind)
        Bad = "kind";
      else if (Methods[K].Id >= Map.size() || Names[K].Id >= Map.size())
        Bad = "symbol";
      else if (Selfs[K].ClassName.Id >= Map.size() ||
               Targets[K].ClassName.Id >= Map.size())
        Bad = "object";
      else if (static_cast<uint8_t>(Values[K].Kind) > MaxReprKind ||
               Values[K].Text.Id >= Map.size())
        Bad = "value";
      else if (ArgsBegins[K] > ArgsEnds[K] || ArgsEnds[K] > PoolCount)
        Bad = "argument-slice";
      if (!Bad)
        continue;
      if (!Salvage)
        return Corrupt(Bad);
      N = K; // Keep the prefix of entries that validate.
      break;
    }
    if (N < Declared) {
      Damaged = true;
      ++SegmentsDropped;
      EntriesDropped += Declared - N;
      if (N == 0)
        continue;
    }
    // A stored lane is only trusted when intact and complete; otherwise
    // fingerprints are recomputed (they are derived data, and a wrong one
    // would corrupt =e instead of merely costing time).
    bool Fps = S[SecFp].Intact && S[SecFp].Length == Declared * 8;
    Kept.push_back({std::move(Parsed), N, Fps});
  }

  if (SegI != Segs.size()) {
    // The loop broke on an unusable side delta: that segment and the whole
    // suffix are lost (chained side bases).
    Damaged = true;
    for (size_t K = SegI; K != Segs.size(); ++K) {
      ++SegmentsDropped;
      EntriesDropped += Segs[K].NumEntries;
    }
  }
  if (Kept.empty() && SegmentsDropped != 0)
    return TraceError::unsalvageable(Path, "no intact segments");

  // Columns: a lone segment loaded under symbol identity is borrowed
  // zero-copy from the file bytes (Backing keeps them alive); otherwise
  // the segments' columns are concatenated into owned storage.
  size_t Count = 0;
  for (const KeptSegment &K : Kept)
    Count += static_cast<size_t>(K.N);
  bool BorrowCols = Identity && Kept.size() == 1;
  auto Fill = [&](auto &Col, uint32_t Id) {
    using Elem =
        std::remove_const_t<std::remove_pointer_t<decltype(Col.data())>>;
    if (BorrowCols) {
      Col.borrow(reinterpret_cast<const Elem *>(Kept[0].Secs.S[Id].Data),
                 Count);
      return;
    }
    Col.reserve(Count);
    for (const KeptSegment &K : Kept)
      Col.append(reinterpret_cast<const Elem *>(K.Secs.S[Id].Data),
                 static_cast<size_t>(K.N));
  };
  Fill(T.Tids, SecTid);
  Fill(T.Methods, SecMethod);
  Fill(T.Selfs, SecSelf);
  Fill(T.Kinds, SecKind);
  Fill(T.Names, SecEvName);
  Fill(T.Targets, SecTarget);
  Fill(T.Values, SecValue);
  Fill(T.ArgsBegins, SecArgsBegin);
  Fill(T.ArgsEnds, SecArgsEnd);
  Fill(T.ChildTids, SecChildTid);
  Fill(T.Provs, SecProv);
  // Stored fingerprints hash the file's symbol ids: usable only under
  // identity and when every kept segment carries a lane.
  bool UseStoredFps =
      Identity && std::all_of(Kept.begin(), Kept.end(),
                              [](const KeptSegment &K) { return K.Fps; });
  if (UseStoredFps)
    Fill(T.Fps, SecFp);
  bool BorrowPool = Identity && PoolSlices.size() == 1;
  if (BorrowPool) {
    T.ArgPool.borrow(PoolSlices[0].first, PoolSlices[0].second);
  } else {
    T.ArgPool.reserve(static_cast<size_t>(PoolCount));
    for (const auto &[Slice, SliceCount] : PoolSlices)
      T.ArgPool.append(Slice, SliceCount);
  }

  // The persisted view index is derived data, so any damage to it — a bad
  // section, a missing delta, dropped entries (which shift eids), an
  // injected borrow failure — degrades to an index-less load: the view web
  // is rebuilt from the entries, observable via `robust.view_index_dropped`.
  if (FileHasViewIndex && !ViewDamaged && SegmentsDropped == 0 &&
      !FaultInjector::fire(FaultSite::ViewIndexBorrow) &&
      (!assembleViewIndex(Kept, Map.size(), BorrowCols, T.ViewIdx) ||
       !viewIndexIsValid(T.ViewIdx, Count)))
    T.ViewIdx.clear();
  if (BorrowCols || BorrowPool || T.ViewIdx.Entries.borrowed())
    T.Backing = File.Holder;

  if (!Identity) {
    // The interner assigned different ids: remap every symbol-bearing
    // column and the index's method keys, then recompute fingerprints
    // (they hash symbol ids). Counted so repeat-load pipelines can spot
    // that sharing one interner across loads would make this free.
    std::optional<TelemetrySpan> RemapSpan(std::in_place, "remap");
    if (T.ViewIdx.Present) {
      // The partition structure and first-appearance order are invariant
      // under re-interning; only the method family's keys are symbol ids.
      // Two file-table strings interning to one symbol (possible only in a
      // hand-crafted table) would collapse two method views into one
      // identity, so the index is dropped rather than diverging from a
      // fresh build.
      uint32_t *MethodKeys = T.ViewIdx.Keys[1].mutData();
      bool Collapsed = false;
      std::unordered_set<uint32_t> SeenKeys;
      SeenKeys.reserve(T.ViewIdx.Keys[1].size());
      for (size_t K = 0; K != T.ViewIdx.Keys[1].size(); ++K) {
        MethodKeys[K] = Map[MethodKeys[K]].Id;
        Collapsed |= !SeenKeys.insert(MethodKeys[K]).second;
      }
      if (Collapsed)
        T.ViewIdx.clear();
    }
    Symbol *M = T.Methods.mutData();
    Symbol *Nm = T.Names.mutData();
    ObjRepr *Sf = T.Selfs.mutData();
    ObjRepr *Tg = T.Targets.mutData();
    ValueRepr *Vl = T.Values.mutData();
    for (size_t K = 0; K != Count; ++K) {
      M[K] = Map[M[K].Id];
      Nm[K] = Map[Nm[K].Id];
      Sf[K].ClassName = Map[Sf[K].ClassName.Id];
      Tg[K].ClassName = Map[Tg[K].ClassName.Id];
      Vl[K].Text = Map[Vl[K].Text.Id];
    }
    ValueRepr *Pl = T.ArgPool.mutData();
    for (size_t K = 0; K != PoolCount; ++K)
      Pl[K].Text = Map[Pl[K].Text.Id];
    RemapSpan.reset();
    Telemetry::counterAdd("load.fp_recompute", 1);
    T.computeFingerprints();
  } else if (UseStoredFps) {
    T.HasFingerprints = true;
  } else {
    T.computeFingerprints();
  }

  if (FileHasViewIndex && !T.ViewIdx.Present) {
    T.ViewIdx.clear();
    Telemetry::counterAdd("robust.view_index_dropped");
    if (Options.Report)
      Options.Report->ViewIndexDropped = true;
  }

  // Segment table for the diff layer's segment-granular run skip: exposed
  // only for fully clean loads (a dropped entry shifts eids, and without
  // the directory the segmentation itself is suspect). Digests hash the
  // *final* (post-remap) fingerprint lane plus the tid lane, so two traces
  // loaded through one interner expose comparable digests.
  if (DirValid && SegmentsDropped == 0) {
    T.Segments.reserve(Kept.size());
    size_t Begin = 0;
    for (const KeptSegment &K : Kept) {
      size_t Len = static_cast<size_t>(K.N);
      uint64_t Digest =
          hashCombine(checksumBytes(T.Fps.data() + Begin, Len * 8),
                      checksumBytes(T.Tids.data() + Begin, Len * 4));
      T.Segments.push_back({static_cast<uint32_t>(Begin),
                            static_cast<uint32_t>(Begin + Len), Digest});
      Begin += Len;
    }
  }

  if (Damaged) {
    Telemetry::counterAdd("robust.salvage.used");
    Telemetry::counterAdd("robust.salvage.recovered_entries", Count);
    Telemetry::counterAdd("robust.salvage.dropped_entries", EntriesDropped);
    Telemetry::counterAdd("robust.salvage.segments_dropped", SegmentsDropped);
    if (Options.Report) {
      Options.Report->Salvaged = true;
      Options.Report->EntriesRecovered = Count;
      Options.Report->EntriesDropped = EntriesDropped;
      Options.Report->SegmentsDropped = SegmentsDropped;
    }
  }
  return T;
}

} // namespace

// --- Writer ----------------------------------------------------------------

struct SegmentedTraceWriter::Impl {
  Writer W;
  size_t SegmentEntries;
  bool WithViewIndex;
  uint64_t Offset = SegFileHeaderBytes; ///< Where the next segment lands.
  size_t Sealed = 0;
  size_t StringsWritten = 0;
  size_t ThreadsWritten = 0;
  size_t PoolWritten = 0;
  bool Finalized = false;
  bool Failed = false;

  struct DirRecord {
    uint64_t Offset;
    uint64_t TableDigest;
    uint64_t LaneDigest;
    uint32_t BeginEid;
    uint32_t NumEntries;
  };
  std::vector<DirRecord> Dir;

  Impl(const std::string &Path, size_t SegEntries, bool WithIdx)
      : W(Path), SegmentEntries(SegEntries ? SegEntries : 1),
        WithViewIndex(WithIdx) {
    W.u32(TraceMagic);
    W.u32(TraceVersion);
    W.u32(0); // Flags; fingerprint presence is per-segment (SecFp).
    W.u32(static_cast<uint32_t>(std::min<size_t>(SegmentEntries, ~0u)));
    W.u64(0); // Reserved.
    W.u64(0); // Reserved.
  }
};

SegmentedTraceWriter::SegmentedTraceWriter(const std::string &Path,
                                           size_t SegmentEntries,
                                           bool WithViewIndex)
    : I(std::make_unique<Impl>(Path, SegmentEntries, WithViewIndex)) {}

SegmentedTraceWriter::~SegmentedTraceWriter() = default;

bool SegmentedTraceWriter::ok() const {
  return I->W.ok() && !I->Failed;
}

size_t SegmentedTraceWriter::segmentEntries() const {
  return I->SegmentEntries;
}

size_t SegmentedTraceWriter::entriesSealed() const { return I->Sealed; }

bool SegmentedTraceWriter::appendSegment(const Trace &T, size_t Begin,
                                         size_t End, bool TrustRangeFps) {
  Impl &S = *I;
  if (S.Finalized || S.Failed || !S.W.ok())
    return false;
  // Ranges must be adjacent; an empty range is only the empty-trace
  // placeholder segment (so even an entry-less file carries side tables).
  if (Begin != S.Sealed || End < Begin || End > T.size() ||
      (End == Begin && !(Begin == 0 && S.Dir.empty()))) {
    S.Failed = true;
    return false;
  }
  size_t N = End - Begin;
  bool WithFps =
      (T.HasFingerprints || TrustRangeFps) && T.Fps.size() >= End;

  // Side-table deltas since the previous seal. All three grow
  // monotonically during recording, so a sealed segment never needs
  // rewriting when later entries arrive.
  size_t NumStrings = T.Strings->size();
  size_t NumThreads = T.Threads.size();
  if (NumStrings < S.StringsWritten || NumThreads < S.ThreadsWritten) {
    S.Failed = true;
    return false;
  }
  ByteBuffer StringsBuf;
  StringsBuf.u32(static_cast<uint32_t>(S.StringsWritten));
  StringsBuf.u32(static_cast<uint32_t>(NumStrings - S.StringsWritten));
  for (size_t K = S.StringsWritten; K != NumStrings; ++K)
    StringsBuf.str(T.Strings->text(Symbol{static_cast<uint32_t>(K)}));

  ByteBuffer ThreadsBuf;
  ThreadsBuf.u32(static_cast<uint32_t>(S.ThreadsWritten));
  ThreadsBuf.u32(static_cast<uint32_t>(NumThreads - S.ThreadsWritten));
  for (size_t K = S.ThreadsWritten; K != NumThreads; ++K) {
    const ThreadInfo &Thread = T.Threads[K];
    ThreadsBuf.u32(Thread.Tid);
    ThreadsBuf.u32(Thread.ParentTid);
    ThreadsBuf.u32(Thread.EntryMethod.Id);
    ThreadsBuf.u64(Thread.AncestryHash);
    ThreadsBuf.u32(static_cast<uint32_t>(Thread.SpawnStack.size()));
    for (Symbol Sym : Thread.SpawnStack)
      ThreadsBuf.u32(Sym.Id);
  }

  // Argument-pool slice the segment's entries reference (offsets in the
  // entry columns stay global). The pool grows monotonically with the
  // entries, so covering the running max of ArgsEnd is exact; the last
  // segment of a complete trace extends to the full pool.
  size_t PoolUpTo = S.PoolWritten;
  if (End == T.size()) {
    PoolUpTo = T.ArgPool.size();
  } else {
    const uint32_t *AE = T.ArgsEnds.data();
    for (size_t K = Begin; K != End; ++K)
      PoolUpTo = std::max(PoolUpTo, static_cast<size_t>(AE[K]));
  }
  if (PoolUpTo > T.ArgPool.size()) {
    S.Failed = true;
    return false;
  }
  ByteBuffer ArgSliceBuf;
  ArgSliceBuf.u64(S.PoolWritten);
  ArgSliceBuf.Out.append(
      reinterpret_cast<const char *>(T.ArgPool.data() + S.PoolWritten),
      (PoolUpTo - S.PoolWritten) * sizeof(ValueRepr));

  // View-index delta over exactly this range (global eids). A whole-trace
  // segment of a trace that already holds a current index (loaded from an
  // indexed file) writes it back verbatim instead of recomputing it.
  ViewIndex SegIdx;
  const ViewIndex *Idx = &SegIdx;
  ByteBuffer ViewMetaBuf;
  if (S.WithViewIndex) {
    if (Begin == 0 && End == T.size() && T.ViewIdx.Present)
      Idx = &T.ViewIdx;
    else
      SegIdx = computeViewIndexRange(T, static_cast<uint32_t>(Begin),
                                     static_cast<uint32_t>(End));
    for (size_t F = 0; F != NumViewFamilies; ++F) {
      ViewMetaBuf.u32(static_cast<uint32_t>(Idx->Keys[F].size()));
      for (uint32_t Key : Idx->Keys[F])
        ViewMetaBuf.u32(Key);
      for (uint32_t ListCount : Idx->Counts[F])
        ViewMetaBuf.u32(ListCount);
    }
  }

  std::vector<SectionOut> Sections;
  if (S.Dir.empty())
    Sections.push_back({SecName, T.Name.data(), T.Name.size()});
  Sections.push_back(
      {SecStrDelta, StringsBuf.Out.data(), StringsBuf.Out.size()});
  Sections.push_back(
      {SecThreadDelta, ThreadsBuf.Out.data(), ThreadsBuf.Out.size()});
  Sections.push_back(
      {SecArgSlice, ArgSliceBuf.Out.data(), ArgSliceBuf.Out.size()});
  Sections.push_back({SecTid, T.Tids.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back({SecMethod, T.Methods.data() + Begin, N * sizeof(Symbol)});
  Sections.push_back({SecSelf, T.Selfs.data() + Begin, N * sizeof(ObjRepr)});
  Sections.push_back({SecKind, T.Kinds.data() + Begin, N * sizeof(uint8_t)});
  Sections.push_back({SecEvName, T.Names.data() + Begin, N * sizeof(Symbol)});
  Sections.push_back(
      {SecTarget, T.Targets.data() + Begin, N * sizeof(ObjRepr)});
  Sections.push_back(
      {SecValue, T.Values.data() + Begin, N * sizeof(ValueRepr)});
  Sections.push_back(
      {SecArgsBegin, T.ArgsBegins.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back(
      {SecArgsEnd, T.ArgsEnds.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back(
      {SecChildTid, T.ChildTids.data() + Begin, N * sizeof(uint32_t)});
  Sections.push_back({SecProv, T.Provs.data() + Begin, N * sizeof(uint32_t)});
  if (WithFps)
    Sections.push_back({SecFp, T.Fps.data() + Begin, N * sizeof(uint64_t)});
  if (S.WithViewIndex) {
    Sections.push_back(
        {SecViewMeta, ViewMetaBuf.Out.data(), ViewMetaBuf.Out.size()});
    Sections.push_back(
        {SecViewEntries, Idx->Entries.data(), Idx->Entries.byteSize()});
  }

  // Lay the payloads out 8-aligned after the segment's table, offsets
  // relative to the segment header (the segment itself is 8-aligned), so
  // mmap'd column views satisfy their element alignment.
  uint64_t Rel = SegHeaderBytes + Sections.size() * SectionRecordBytes;
  std::vector<uint64_t> Offsets(Sections.size());
  for (size_t K = 0; K != Sections.size(); ++K) {
    Rel = (Rel + 7) & ~uint64_t{7};
    Offsets[K] = Rel;
    Rel += Sections[K].Length;
  }
  uint64_t RelEnd = (Rel + 7) & ~uint64_t{7};
  uint64_t PayloadBytes = RelEnd - SegHeaderBytes;

  std::vector<uint64_t> Sums = sectionChecksums(Sections);
  ByteBuffer Table;
  uint64_t TidSum = 0, FpSum = 0;
  for (size_t K = 0; K != Sections.size(); ++K) {
    Table.u32(Sections[K].Id);
    Table.u32(0); // pad
    Table.u64(Offsets[K]);
    Table.u64(Sections[K].Length);
    Table.u64(Sums[K]);
    if (Sections[K].Id == SecTid)
      TidSum = Sums[K];
    else if (Sections[K].Id == SecFp)
      FpSum = Sums[K];
  }
  uint64_t TableDigest = checksumBytes(Table.Out.data(), Table.Out.size());
  uint64_t LaneDigest = hashCombine(FpSum, TidSum);

  Writer &W = S.W;
  W.u32(SegMagic);
  W.u32(static_cast<uint32_t>(S.Dir.size()));
  W.u64(Begin);
  W.u32(static_cast<uint32_t>(N));
  W.u32(static_cast<uint32_t>(Sections.size()));
  W.u64(PayloadBytes);
  W.raw(Table.Out.data(), Table.Out.size());
  uint64_t Pos = SegHeaderBytes + Sections.size() * SectionRecordBytes;
  for (size_t K = 0; K != Sections.size(); ++K) {
    W.zeros(Offsets[K] - Pos);
    W.raw(Sections[K].Data, Sections[K].Length);
    Pos = Offsets[K] + Sections[K].Length;
  }
  W.zeros(RelEnd - Pos);

  S.Dir.push_back({S.Offset, TableDigest, LaneDigest,
                   static_cast<uint32_t>(Begin), static_cast<uint32_t>(N)});
  S.Offset += SegHeaderBytes + PayloadBytes;
  S.Sealed = End;
  S.StringsWritten = NumStrings;
  S.ThreadsWritten = NumThreads;
  S.PoolWritten = PoolUpTo;
  if (!W.ok())
    S.Failed = true;
  return !S.Failed;
}

bool SegmentedTraceWriter::finalize() {
  Impl &S = *I;
  if (S.Finalized)
    return false;
  S.Finalized = true;
  if (S.Failed || !S.W.ok())
    return false;
  ByteBuffer Footer;
  Footer.u32(FooterMagic);
  Footer.u32(static_cast<uint32_t>(S.Dir.size()));
  for (const Impl::DirRecord &Rec : S.Dir) {
    Footer.u64(Rec.Offset);
    Footer.u64(Rec.TableDigest);
    Footer.u64(Rec.LaneDigest);
    Footer.u32(Rec.BeginEid);
    Footer.u32(Rec.NumEntries);
  }
  uint64_t FooterOffset = S.Offset;
  uint64_t FooterChecksum =
      checksumBytes(Footer.Out.data(), Footer.Out.size());
  S.W.raw(Footer.Out.data(), Footer.Out.size());
  S.W.u64(FooterOffset);
  S.W.u64(FooterChecksum);
  S.W.u32(static_cast<uint32_t>(S.Dir.size()));
  S.W.u32(TrailerMagic);
  return S.W.ok();
}

bool rprism::writeTraceSegmented(const Trace &T, const std::string &Path,
                                 size_t SegmentEntries, bool WithViewIndex) {
  if (SegmentEntries == 0)
    return false;
  TelemetrySpan Span("write");
  SegmentedTraceWriter W(Path, SegmentEntries, WithViewIndex);
  if (!W.ok())
    return false;
  size_t Begin = 0;
  do {
    size_t End = std::min(T.size(), Begin + SegmentEntries);
    if (!W.appendSegment(T, Begin, End))
      return false;
    Begin = End;
  } while (Begin < T.size());
  return W.finalize();
}

bool rprism::writeTrace(const Trace &T, const std::string &Path,
                        bool WithViewIndex) {
  return writeTraceSegmented(T, Path, std::max<size_t>(T.size(), 1),
                             WithViewIndex);
}

// --- Reader ----------------------------------------------------------------

Expected<Trace> rprism::readTrace(const std::string &Path,
                                  std::shared_ptr<StringInterner> Strings) {
  return readTrace(Path, std::move(Strings), ReadOptions{});
}

Expected<Trace> rprism::readTrace(const std::string &Path,
                                  std::shared_ptr<StringInterner> Strings,
                                  const ReadOptions &Options) {
  TelemetrySpan Span("load");
  if (!Strings)
    Strings = std::make_shared<StringInterner>();

  FileBytes File;
  IoStatus Status;
  {
    TelemetrySpan MapSpan("map");
    Status = loadFileBytes(Path, File);
  }
  if (Status == IoStatus::NotFound)
    return TraceError::notFound(Path);
  if (Status == IoStatus::Error)
    return TraceError::cannotOpen(Path);
  if (File.Mapped)
    Telemetry::counterAdd("load.mmap", 1);

  uint32_t Magic = 0;
  if (File.Size >= 4)
    std::memcpy(&Magic, File.Data, 4);
  if (Magic != TraceMagic)
    return TraceError::notATrace(Path);
  uint32_t Version = 0;
  if (File.Size >= 8)
    std::memcpy(&Version, File.Data + 4, 4);
  if (Version != TraceVersion)
    return TraceError::unsupportedVersion(Path, Version);

  Expected<Trace> Result =
      readSegmented(Path, File, std::move(Strings), Options);
  if (Result)
    Telemetry::counterAdd("trace.entries_loaded", Result->size());
  return Result;
}

Expected<uint64_t> rprism::traceFileDigest(const std::string &Path) {
  FileBytes File;
  IoStatus Status = loadFileBytes(Path, File);
  if (Status == IoStatus::NotFound)
    return TraceError::notFound(Path);
  if (Status == IoStatus::Error)
    return TraceError::cannotOpen(Path);
  if (File.Size < 8)
    return TraceError::truncated(Path);
  uint32_t Head[2];
  std::memcpy(Head, File.Data, sizeof(Head));
  if (Head[0] != TraceMagic)
    return TraceError::notATrace(Path);
  if (Head[1] == TraceVersion &&
      File.Size >= SegFileHeaderBytes + SegTrailerBytes) {
    // The footer directory carries each segment's table digest, and each
    // segment table carries per-payload checksums, so header + footer
    // cover the whole content without touching the (potentially large)
    // payload bytes. Only usable when the trailer and footer verify.
    uint64_t FooterOffset, FooterChecksum;
    uint32_t NumSegments;
    const uint8_t *Trailer = File.Data + (File.Size - SegTrailerBytes);
    std::memcpy(&FooterOffset, Trailer, 8);
    std::memcpy(&FooterChecksum, Trailer + 8, 8);
    std::memcpy(&NumSegments, Trailer + 16, 4);
    uint64_t FooterBytes = 8 + uint64_t{NumSegments} * SegDirRecordBytes;
    if (FooterOffset >= SegFileHeaderBytes &&
        FooterOffset + FooterBytes == File.Size - SegTrailerBytes &&
        checksumBytes(File.Data + FooterOffset,
                      static_cast<size_t>(FooterBytes)) == FooterChecksum)
      return hashCombine(checksumBytes(File.Data, SegFileHeaderBytes),
                         checksumBytes(File.Data + FooterOffset,
                                       static_cast<size_t>(FooterBytes)),
                         File.Size);
  }
  // A damaged or foreign file (which a full read will reject anyway):
  // hash the entire file.
  return hashCombine(checksumBytes(File.Data, File.Size), File.Size);
}

std::string rprism::dumpTrace(const Trace &T) {
  std::ostringstream OS;
  OS << "trace '" << T.Name << "': " << T.size() << " entries, "
     << T.Threads.size() << " thread(s)\n";
  for (uint32_t I = 0; I != T.size(); ++I)
    OS << "  [" << I << "] " << T.renderEntry(I) << '\n';
  return OS.str();
}
