//===- trace/Serialize.cpp ------------------------------------------------===//

#include "trace/Serialize.h"

#include "robustness/FaultInjector.h"
#include "robustness/Retry.h"
#include "support/Hashing.h"
#include "support/Telemetry.h"
#include "trace/TraceError.h"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <optional>
#include <sstream>
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
//   4 — the segment framing described below, FNV-1a checksums.
//   5 — the v3 layout with inline scalar payloads (ValueRepr::Bits, no
//       interned text) and checksumBytes digests.
//   6 — the segment framing with those two changes, one segment per file.
//   7 — compact entries: receiver and target are u32 ids into an object
//       table, argument slices one N+1 offset column, fork/end child tids
//       an (eid, tid) side table. The only version written or read.
// Every other version word is rejected as unsupported: the value words and
// checksums of older files mean something else, and a typed version error
// says so where a checksum mismatch would mislead.
constexpr uint32_t TraceVersion = 7;

/// Section ids. Entry columns are parallel arrays of exactly the segment's
/// entry count many elements (ArgOffsets: one more); side sections have
/// their own framing.
enum SectionId : uint32_t {
  SecName = 1,        ///< Raw bytes of Trace::Name.
  SecTid = 10,        ///< uint32_t[]
  SecMethod = 11,     ///< Symbol[]
  SecSelfId = 12,     ///< uint32_t[], into SecObjects
  SecKind = 13,       ///< uint8_t[]
  SecEvName = 14,     ///< Symbol[]
  SecTargetId = 15,   ///< uint32_t[], into SecObjects
  SecValue = 16,      ///< ValueRepr[]
  SecArgOffsets = 17, ///< uint32_t[N + 1], into SecArgPool
  SecProv = 18,       ///< uint32_t[]
  SecFp = 19,         ///< uint64_t[] (optional fingerprint lane)
  // Side tables.
  SecStrings = 20,  ///< u32 count, count x (u32 len, bytes).
  SecThreads = 21,  ///< u32 count, ThreadInfo records.
  SecArgPool = 22,  ///< ValueRepr[]
  SecObjects = 23,  ///< ObjRepr[]
  SecChildTids = 24, ///< ChildTidRow[], ascending eid.
};

/// Largest section id this reader understands; higher ids are skipped for
/// forward compatibility.
constexpr uint32_t MaxSectionId = SecChildTids;

constexpr size_t SectionRecordBytes = 32; // id, pad, offset, length, checksum
constexpr uint32_t MaxSections = 64;

// --- Framing ---------------------------------------------------------------
// A file is a 32-byte file header, then one segment — a segment header +
// section table + 8-byte-aligned payloads with per-section checksums — then
// a footer directory with the segment's one record, and a fixed trailer.
// Per-section checksums let --salvage keep the surviving column prefix of
// a damaged or truncated file.
constexpr uint32_t SegMagic = 0x52505347;     // "RPSG", leads the segment
constexpr uint32_t FooterMagic = 0x52504654;  // "RPFT", leads the directory
constexpr uint32_t TrailerMagic = 0x52505445; // "RPTE", ends the file
// File header: magic, version, flags, segment-target entries (the entry
// count, at least 1), 2 x u64 reserved. Segment header: seg magic, index 0,
// u64 begin eid 0, num entries, num sections, u64 payload bytes (table +
// padding + payloads, 8-aligned — the footer starts exactly payload-bytes
// after the header ends).
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

/// The required one-element-per-entry column sections and their element
/// sizes (SecArgOffsets, one element longer, is checked on its own).
struct ColumnSize {
  uint32_t Id;
  uint64_t ElemSize;
};
constexpr ColumnSize ColumnSizes[] = {
    {SecTid, 4},      {SecMethod, 4}, {SecSelfId, 4}, {SecKind, 1},
    {SecEvName, 4},   {SecTargetId, 4}, {SecValue, 16}, {SecProv, 4},
};

/// The trace's one segment as located in the file: its header fields and
/// byte extent.
struct SegExtent {
  uint64_t Offset = 0; ///< Absolute offset of the segment header.
  uint64_t BeginEid = 0;
  uint32_t NumEntries = 0;
  uint32_t NumSections = 0;
  uint64_t PayloadBytes = 0;
  bool Truncated = false; ///< The file ends inside the payload.
};

/// Parses the segment header at \p Off. False when the bytes there cannot
/// be segment 0 of this file (wrong magic or index, bad section count,
/// extent out of bounds). A payload running past the end of the file is
/// flagged, not refused: the sections are read only up to the end of the
/// file.
bool parseSegHeader(const FileBytes &File, uint64_t Off, SegExtent &Out) {
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
  if (Magic != SegMagic || SegIndex != 0 || NumSections == 0 ||
      NumSections > MaxSections ||
      PayloadBytes < uint64_t{NumSections} * SectionRecordBytes)
    return false;
  bool Truncated = PayloadBytes > File.Size - Off - SegHeaderBytes;
  Out = SegExtent{Off,         BeginEid,     NumEntries,
                  NumSections, PayloadBytes, Truncated};
  return true;
}

/// The footer directory as the trailer locates it.
struct FooterDir {
  const uint8_t *Data = nullptr; ///< Footer magic and count, then records.
  uint32_t NumSegments = 0;
};

/// Parses the trailer and verifies the footer it points at: bounds,
/// checksum, magic, record count. The trailer is untrusted, so every bound
/// is checked in a form that cannot wrap around: a hostile offset plus
/// footer length may overflow 64 bits.
std::optional<FooterDir> parseFooter(const FileBytes &File) {
  if (File.Size < SegFileHeaderBytes + SegTrailerBytes)
    return std::nullopt;
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
    return std::nullopt;
  const uint8_t *F = File.Data + FooterOffset;
  if (checksumBytes(F, static_cast<size_t>(FooterBytes)) != FooterChecksum)
    return std::nullopt;
  uint32_t FMagic, FCount;
  std::memcpy(&FMagic, F, 4);
  std::memcpy(&FCount, F + 4, 4);
  if (FMagic != FooterMagic || FCount != NumSegments)
    return std::nullopt;
  return FooterDir{F, NumSegments};
}

/// The segment's parsed section table; record offsets are relative to the
/// segment header. Damage is fatal in strict mode (StrictErr holds the
/// first, typed) and per-section in salvage mode: the section reads as
/// absent, as not intact, or — where the file ends inside it — as an
/// unverified prefix.
struct SegSections {
  SectionIn S[MaxSectionId + 1] = {};
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
    if (Offset % 8 != 0 || Offset < TableEnd || Offset > DeclEnd ||
        Length > DeclEnd - Offset) {
      // The record itself is unusable: salvage treats the section as absent.
      StrictBad(TraceError::sectionBounds(Path, Id, Seg.Offset + Offset));
      continue;
    }
    if (Id > MaxSectionId)
      continue; // Unknown section: forward compatibility.
    if (Out.S[Id].Present) {
      StrictBad(TraceError::duplicateSection(Path, Id));
      continue; // Salvage keeps the first record seen.
    }
    // A truncated segment's header declares payload past the end of the
    // file, so Offset may lie far beyond the bytes; clamp before forming
    // the pointer (no bytes are read from there: Avail is 0).
    const uint8_t *Data =
        File.Data + Seg.Offset + std::min(Offset, AvailEnd);
    uint64_t Avail =
        Offset >= AvailEnd ? 0 : std::min(Length, AvailEnd - Offset);
    bool Intact = Avail == Length;
    if (Intact) {
      BytesVerified += Length;
      if (checksumBytes(Data, Length) != Checksum ||
          FaultInjector::fire(FaultSite::SectionChecksum)) {
        // Checksum mismatch (real or injected): the damage can be anywhere
        // in the payload, so unlike truncation no prefix is trustworthy.
        StrictBad(TraceError::sectionChecksum(Path, Id, Seg.Offset + Offset));
        Intact = false;
        Avail = 0;
      }
    } else {
      StrictBad(TraceError::truncated(Path));
    }
    Out.S[Id] = SectionIn{Data, Length, Avail, true, Intact};
  }
  Telemetry::counterAdd("load.bytes_verified", BytesVerified);
  return Out;
}

Expected<Trace> readOneSegment(const std::string &Path, const FileBytes &File,
                               std::shared_ptr<StringInterner> Strings,
                               const ReadOptions &Options) {
  const bool Salvage = Options.Salvage;
  auto Corrupt = [&](const char *What) {
    return TraceError::corruptSection(Path, What);
  };
  auto Unsalvageable = [&] {
    return TraceError::unsalvageable(Path, "no intact segments");
  };
  // Damage that leaves no entry recoverable: a typed corrupt section in
  // strict mode, unsalvageable under salvage.
  auto Lost = [&](const char *What) {
    return Salvage ? Unsalvageable() : Corrupt(What);
  };

  if (File.Size < SegFileHeaderBytes)
    return TraceError::truncated(Path);

  // Locate the segment through the footer directory when the trailer, the
  // footer checksum, and its single record verify. A directory listing any
  // other number of segments is corrupt. Otherwise (salvage only) the
  // segment header is read where writeTrace puts it, right after the file
  // header; salvage never looks past that segment. The directory's table
  // digest is not checked here: every section carries its own checksum,
  // and damage to one record must cost that section, not the whole file.
  SegExtent Seg;
  bool DirValid = [&] {
    TelemetrySpan VerifySpan("verify");
    std::optional<FooterDir> Dir = parseFooter(File);
    if (!Dir || Dir->NumSegments != 1)
      return false;
    const uint8_t *R = Dir->Data + 8;
    uint64_t Offset;
    uint32_t BeginEid, NumEntries;
    std::memcpy(&Offset, R, 8);
    std::memcpy(&BeginEid, R + 24, 4);
    std::memcpy(&NumEntries, R + 28, 4);
    return parseSegHeader(File, Offset, Seg) && !Seg.Truncated &&
           Seg.BeginEid == BeginEid && Seg.NumEntries == NumEntries;
  }();

  bool Damaged = false;
  if (!DirValid) {
    if (!Salvage)
      return Corrupt("segment-directory");
    Damaged = true;
    if (!parseSegHeader(File, SegFileHeaderBytes, Seg))
      return Unsalvageable();
  }
  if (!Salvage && Seg.BeginEid != 0)
    return Corrupt("segment-header");

  SegSections Parsed = parseSegSections(Path, File, Seg);
  if (Parsed.StrictErr) {
    if (!Salvage)
      return std::move(*Parsed.StrictErr);
    Damaged = true;
  }
  const SectionIn *S = Parsed.S;

  // Every entry's symbol ids, objects, argument slices and child tids
  // resolve through the side tables, so damage to any of them leaves
  // nothing to recover.
  if (!S[SecStrings].Intact || !S[SecThreads].Intact ||
      !S[SecArgPool].Intact || !S[SecObjects].Intact ||
      !S[SecChildTids].Intact)
    return Lost("segment-side-table");

  Trace T;
  T.Strings = std::move(Strings);
  if (S[SecName].Intact)
    T.Name.assign(reinterpret_cast<const char *>(S[SecName].Data),
                  S[SecName].Length);

  // String table. The declared count is untrusted: every string costs at
  // least its 4-byte length prefix, so a count beyond Length/4 is corrupt.
  std::vector<Symbol> Map;
  bool Identity = true;
  {
    TelemetrySpan InternSpan("intern");
    ByteCursor SC(S[SecStrings].Data, S[SecStrings].Length);
    uint32_t NumStrings = SC.u32();
    bool Ok = SC.ok() && uint64_t{NumStrings} <= S[SecStrings].Length / 4;
    if (Ok)
      Map.reserve(NumStrings);
    for (uint32_t K = 0; Ok && K != NumStrings; ++K) {
      std::string Str = SC.str();
      Ok = SC.ok();
      if (Ok) {
        Map.push_back(T.Strings->intern(Str));
        Identity &= Map.back().Id == Map.size() - 1;
      }
    }
    if (!Ok || !SC.atEnd())
      return Lost("string");
  }

  // Thread table. Record K describes thread K: everything downstream
  // indexes Threads by tid.
  {
    ByteCursor TC(S[SecThreads].Data, S[SecThreads].Length);
    uint32_t NumThreads = TC.u32();
    bool Ok = TC.ok();
    for (uint32_t K = 0; Ok && K != NumThreads; ++K) {
      ThreadInfo Thread;
      Thread.Tid = TC.u32();
      Thread.ParentTid = TC.u32();
      uint32_t Method = TC.u32();
      Thread.AncestryHash = TC.u64();
      uint32_t StackSize = TC.u32();
      Ok = TC.ok() && Thread.Tid == K && Method < Map.size();
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
    if (!Ok || !TC.atEnd())
      return Lost("thread");
  }

  // The remaining side tables are raw element arrays.
  const SectionIn &AS = S[SecArgPool];
  const SectionIn &OS = S[SecObjects];
  const SectionIn &CS = S[SecChildTids];
  if (AS.Length % sizeof(ValueRepr) != 0)
    return Lost("argument-pool");
  if (OS.Length % sizeof(ObjRepr) != 0)
    return Lost("object");
  if (CS.Length % sizeof(ChildTidRow) != 0)
    return Lost("child-tid");
  uint64_t PoolCount = AS.Length / sizeof(ValueRepr);
  uint64_t NumObjects = OS.Length / sizeof(ObjRepr);
  uint64_t NumRows = CS.Length / sizeof(ChildTidRow);
  const auto *Pool = reinterpret_cast<const ValueRepr *>(AS.Data);
  const auto *Objects = reinterpret_cast<const ObjRepr *>(OS.Data);
  const auto *Rows = reinterpret_cast<const ChildTidRow *>(CS.Data);

  // Entry columns. Strict mode demands every column carry exactly the
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
  const SectionIn &OffS = S[SecArgOffsets];
  if (!Salvage && (!OffS.Present || OffS.Length != (Declared + 1) * 4))
    return Corrupt("column");
  N = std::min(N, OffS.Avail / 4 == 0 ? 0 : OffS.Avail / 4 - 1);
  const auto *Tids = reinterpret_cast<const uint32_t *>(S[SecTid].Data);
  const uint8_t *Kinds = S[SecKind].Data;
  const auto *Methods = reinterpret_cast<const Symbol *>(S[SecMethod].Data);
  const auto *Names = reinterpret_cast<const Symbol *>(S[SecEvName].Data);
  const auto *SelfIds = reinterpret_cast<const uint32_t *>(S[SecSelfId].Data);
  const auto *TargetIds =
      reinterpret_cast<const uint32_t *>(S[SecTargetId].Data);
  const auto *Values = reinterpret_cast<const ValueRepr *>(S[SecValue].Data);
  const auto *ArgOffsets = reinterpret_cast<const uint32_t *>(OffS.Data);

  // Validation scan over the untrusted values, so nothing downstream needs
  // to distrust them: enum ranges, thread ids, symbol ids, object ids,
  // argument slices, and the child-tid rows (one per fork/end entry, in
  // eid order, each naming a thread).
  uint64_t RowsUsed = 0;
  {
    TelemetrySpan ValidateSpan("validate");
    for (uint64_t K = 0; K != PoolCount; ++K)
      if (static_cast<uint8_t>(Pool[K].Kind) > MaxReprKind ||
          Pool[K].Text.Id >= Map.size())
        return Lost("argument-pool");
    for (uint64_t K = 0; K != NumObjects; ++K)
      if (Objects[K].ClassName.Id >= Map.size())
        return Lost("object");
    for (uint64_t K = 0; K != N; ++K) {
      const char *Bad = nullptr;
      bool ThreadEvent = Kinds[K] == static_cast<uint8_t>(EventKind::Fork) ||
                         Kinds[K] == static_cast<uint8_t>(EventKind::End);
      bool HasRow = RowsUsed < NumRows && Rows[RowsUsed].Eid == K;
      if (Kinds[K] > MaxEventKind)
        Bad = "kind";
      else if (Tids[K] >= T.Threads.size())
        Bad = "thread";
      else if (Methods[K].Id >= Map.size() || Names[K].Id >= Map.size())
        Bad = "symbol";
      else if (SelfIds[K] >= NumObjects || TargetIds[K] >= NumObjects)
        Bad = "object";
      else if (static_cast<uint8_t>(Values[K].Kind) > MaxReprKind ||
               Values[K].Text.Id >= Map.size())
        Bad = "value";
      else if (ArgOffsets[K] > ArgOffsets[K + 1] ||
               ArgOffsets[K + 1] > PoolCount)
        Bad = "argument-slice";
      else if (ThreadEvent != HasRow ||
               (HasRow && Rows[RowsUsed].Tid >= T.Threads.size()))
        Bad = "child-tid";
      if (!Bad) {
        RowsUsed += HasRow;
        continue;
      }
      if (!Salvage)
        return Corrupt(Bad);
      N = K; // Keep the prefix of entries that validate.
      break;
    }
    // A complete trace uses every row and the whole pool.
    if (!Salvage && RowsUsed != NumRows)
      return Corrupt("child-tid");
    if (!Salvage && ArgOffsets[N] != PoolCount)
      return Corrupt("argument-slice");
  }
  uint64_t EntriesDropped = Declared - N;
  if (EntriesDropped != 0) {
    Damaged = true;
    if (N == 0)
      return Unsalvageable();
  }

  // Columns loaded under symbol identity are borrowed zero-copy from the
  // file bytes (Backing keeps them alive); otherwise they are copied into
  // owned storage and remapped below. A salvaged prefix keeps the pool
  // its slices reach (validated for every kept entry) and the child-tid
  // rows of its entries.
  size_t Count = static_cast<size_t>(N);
  size_t PoolUsed = Count != 0 ? ArgOffsets[Count] : 0;
  auto Fill = [&](auto &Col, const void *Data, size_t Len) {
    using Elem =
        std::remove_const_t<std::remove_pointer_t<decltype(Col.data())>>;
    const auto *Elems = static_cast<const Elem *>(Data);
    if (Identity)
      Col.borrow(Elems, Len);
    else
      Col.append(Elems, Len);
  };
  Fill(T.Tids, Tids, Count);
  Fill(T.Methods, Methods, Count);
  Fill(T.SelfIds, SelfIds, Count);
  Fill(T.Kinds, Kinds, Count);
  Fill(T.Names, Names, Count);
  Fill(T.TargetIds, TargetIds, Count);
  Fill(T.Values, Values, Count);
  if (Count != 0)
    Fill(T.ArgOffsets, ArgOffsets, Count + 1);
  else
    T.ArgOffsets.push_back(0); // No entries: no slices into the pool.
  Fill(T.Provs, S[SecProv].Data, Count);
  Fill(T.Objects, Objects, static_cast<size_t>(NumObjects));
  Fill(T.ChildTidTable, Rows, static_cast<size_t>(RowsUsed));
  Fill(T.ArgPool, Pool, PoolUsed);
  // Stored fingerprints hash the file's symbol ids: usable only under
  // identity, and only when the lane is intact and complete — they are
  // derived data, and a wrong one would corrupt =e instead of merely
  // costing time.
  bool UseStoredFps =
      Identity && S[SecFp].Intact && S[SecFp].Length == Declared * 8;
  if (UseStoredFps)
    Fill(T.Fps, S[SecFp].Data, Count);

  if (Identity)
    T.Backing = File.Holder;

  if (!Identity) {
    // The interner assigned different ids: remap every symbol-bearing
    // column and table (class names once per object row), then recompute
    // fingerprints (they hash symbol ids). Counted so repeat-load
    // pipelines can spot that sharing one interner across loads would
    // make this free.
    std::optional<TelemetrySpan> RemapSpan(std::in_place, "remap");
    Symbol *M = T.Methods.mutData();
    Symbol *Nm = T.Names.mutData();
    ValueRepr *Vl = T.Values.mutData();
    for (size_t K = 0; K != Count; ++K) {
      M[K] = Map[M[K].Id];
      Nm[K] = Map[Nm[K].Id];
      Vl[K].Text = Map[Vl[K].Text.Id];
    }
    ObjRepr *Ob = T.Objects.mutData();
    for (size_t K = 0; K != T.Objects.size(); ++K)
      Ob[K].ClassName = Map[Ob[K].ClassName.Id];
    ValueRepr *Pl = T.ArgPool.mutData();
    for (size_t K = 0; K != PoolUsed; ++K)
      Pl[K].Text = Map[Pl[K].Text.Id];
    RemapSpan.reset();
    Telemetry::counterAdd("load.fp_recompute", 1);
    T.computeFingerprints();
  } else if (UseStoredFps) {
    T.HasFingerprints = true;
  } else {
    T.computeFingerprints();
  }

  if (Damaged) {
    Telemetry::counterAdd("robust.salvage.used");
    Telemetry::counterAdd("robust.salvage.recovered_entries", Count);
    Telemetry::counterAdd("robust.salvage.dropped_entries", EntriesDropped);
    if (Options.Report) {
      Options.Report->Salvaged = true;
      Options.Report->EntriesRecovered = Count;
      Options.Report->EntriesDropped = EntriesDropped;
    }
  }
  return T;
}

} // namespace

// --- Writer ----------------------------------------------------------------

bool rprism::writeTrace(const Trace &T, const std::string &Path) {
  TelemetrySpan Span("write");
  Writer W(Path);
  if (!W.ok())
    return false;
  size_t N = T.size();
  // File header. The segment-target field records the segment's entry
  // count (at least 1), as the format has always stored it.
  W.u32(TraceMagic);
  W.u32(TraceVersion);
  W.u32(0); // Flags; fingerprint presence is signalled by SecFp.
  W.u32(static_cast<uint32_t>(std::min<size_t>(std::max<size_t>(N, 1), ~0u)));
  W.u64(0); // Reserved.
  W.u64(0); // Reserved.

  // Side tables: strings and threads framed, the rest raw elements.
  size_t NumStrings = T.Strings->size();
  ByteBuffer StringsBuf;
  StringsBuf.u32(static_cast<uint32_t>(NumStrings));
  for (size_t K = 0; K != NumStrings; ++K)
    StringsBuf.str(T.Strings->text(Symbol{static_cast<uint32_t>(K)}));

  ByteBuffer ThreadsBuf;
  ThreadsBuf.u32(static_cast<uint32_t>(T.Threads.size()));
  for (const ThreadInfo &Thread : T.Threads) {
    ThreadsBuf.u32(Thread.Tid);
    ThreadsBuf.u32(Thread.ParentTid);
    ThreadsBuf.u32(Thread.EntryMethod.Id);
    ThreadsBuf.u64(Thread.AncestryHash);
    ThreadsBuf.u32(static_cast<uint32_t>(Thread.SpawnStack.size()));
    for (Symbol Sym : Thread.SpawnStack)
      ThreadsBuf.u32(Sym.Id);
  }

  // An entry-less trace built by hand may not have its leading offset.
  static const uint32_t NoArgs = 0;
  const uint32_t *ArgOffsets =
      T.ArgOffsets.empty() ? &NoArgs : T.ArgOffsets.data();
  size_t PoolLen = std::min<size_t>(ArgOffsets[N], T.ArgPool.size());

  std::vector<SectionOut> Sections = {
      {SecName, T.Name.data(), T.Name.size()},
      {SecStrings, StringsBuf.Out.data(), StringsBuf.Out.size()},
      {SecThreads, ThreadsBuf.Out.data(), ThreadsBuf.Out.size()},
      {SecArgPool, T.ArgPool.data(), PoolLen * sizeof(ValueRepr)},
      {SecObjects, T.Objects.data(), T.Objects.byteSize()},
      {SecChildTids, T.ChildTidTable.data(), T.ChildTidTable.byteSize()},
      {SecTid, T.Tids.data(), N * sizeof(uint32_t)},
      {SecMethod, T.Methods.data(), N * sizeof(Symbol)},
      {SecSelfId, T.SelfIds.data(), N * sizeof(uint32_t)},
      {SecKind, T.Kinds.data(), N * sizeof(uint8_t)},
      {SecEvName, T.Names.data(), N * sizeof(Symbol)},
      {SecTargetId, T.TargetIds.data(), N * sizeof(uint32_t)},
      {SecValue, T.Values.data(), N * sizeof(ValueRepr)},
      {SecArgOffsets, ArgOffsets, (N + 1) * sizeof(uint32_t)},
      {SecProv, T.Provs.data(), N * sizeof(uint32_t)},
  };
  if (T.HasFingerprints && T.Fps.size() >= N)
    Sections.push_back({SecFp, T.Fps.data(), N * sizeof(uint64_t)});

  // Lay the payloads out 8-aligned after the section table, offsets
  // relative to the segment header (which is itself 8-aligned), so mmap'd
  // column views satisfy their element alignment.
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

  // Segment 0: header, section table, payloads.
  W.u32(SegMagic);
  W.u32(0); // Segment index.
  W.u64(0); // First entry id.
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

  // Footer directory with the segment's one record, then the trailer.
  ByteBuffer Footer;
  Footer.u32(FooterMagic);
  Footer.u32(1);
  Footer.u64(SegFileHeaderBytes);
  Footer.u64(checksumBytes(Table.Out.data(), Table.Out.size()));
  Footer.u64(hashCombine(FpSum, TidSum));
  Footer.u32(0); // First entry id.
  Footer.u32(static_cast<uint32_t>(N));
  W.raw(Footer.Out.data(), Footer.Out.size());
  W.u64(SegFileHeaderBytes + SegHeaderBytes + PayloadBytes);
  W.u64(checksumBytes(Footer.Out.data(), Footer.Out.size()));
  W.u32(1);
  W.u32(TrailerMagic);
  return W.ok();
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
      readOneSegment(Path, File, std::move(Strings), Options);
  if (Result)
    Telemetry::counterAdd("trace.entries_loaded", Result->size());
  return Result;
}

std::string rprism::dumpTrace(const Trace &T) {
  std::ostringstream OS;
  OS << "trace '" << T.Name << "': " << T.size() << " entries, "
     << T.Threads.size() << " thread(s)\n";
  for (uint32_t I = 0; I != T.size(); ++I)
    OS << "  [" << I << "] " << T.renderEntry(I) << '\n';
  return OS.str();
}
