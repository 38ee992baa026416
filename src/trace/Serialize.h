//===- trace/Serialize.h - Trace (de)serialization and segmentation -------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of traces. RPRISM collects traces online but
/// analyzes them offline "after the trace data has been serialized to disk"
/// (§5), using *trace segmentation* to bound tracing memory: a long trace is
/// offloaded in segments and the in-memory buffer reclaimed. This module
/// provides the equivalent: whole-trace write/read plus a segmented writer
/// that emits numbered segment files and a reader that reassembles them.
///
/// Format v3 (the default) is a sectioned, length-prefixed layout whose
/// payloads are the columnar Trace's columns written verbatim: a header,
/// a section table of (id, offset, length, checksum) records, then
/// 8-byte-aligned payloads. Readers mmap the file (falling back to an
/// aligned arena read), verify every section checksum, validate the
/// untrusted bytes (kinds, symbol ids, argument slices), and then *borrow*
/// the columns zero-copy when the file's string table interns to identical
/// symbol ids — the common case for a fresh or same-session interner —
/// including the fingerprint column, so loading skips re-fingerprinting
/// entirely. Otherwise the columns are materialized and symbols remapped.
///
/// Symbols are file-local on disk; readers re-intern through the supplied
/// StringInterner, so traces written by different runs can be loaded into
/// one shared interner for differencing. v1/v2 stream-format files still
/// load through the legacy reader. The v3 and v4 layouts carry version
/// words 5 and 6; files with their earlier words 3 and 4 (interned scalar
/// text, FNV-1a checksums) are rejected as unsupported.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_SERIALIZE_H
#define RPRISM_TRACE_SERIALIZE_H

#include "support/Expected.h"
#include "trace/Trace.h"

#include <string>

namespace rprism {

/// Writes \p T to \p Path in the current default format (v3), or in the
/// segmented v4 format when the RPRISM_TRACE_FORMAT environment variable
/// is "v4". Returns false on I/O failure. By default the file carries the
/// optional view-index sections (the trace's ViewIdx when current, else
/// computed here), so a later `rprism diff` reconstructs the view web
/// without scanning the entries; \p WithViewIndex = false omits them (the
/// sections are optional — files load either way, and pre-index readers
/// skip the unknown sections).
bool writeTrace(const Trace &T, const std::string &Path,
                bool WithViewIndex = true);

/// Default entry count per segment of a v4 segmented trace file.
inline constexpr size_t DefaultSegmentEntries = 1u << 16;

/// Streaming writer for the segmented v4 trace format: a single file of
/// fixed-entry-count segments, each carrying its own column slices,
/// per-section checksums, fingerprint lane, side-table *deltas*
/// (strings/threads newly seen since the previous seal, the argument-pool
/// slice the segment's entries reference), and a view-index delta — closed
/// by a footer segment directory and a fixed-size trailer. Because every
/// segment checksums independently, salvage recovers every intact segment
/// even when damage sits mid-column in an earlier one, and a recorder can
/// seal segments while the run is still producing entries (side tables and
/// the argument pool grow monotonically, so a sealed prefix never needs
/// rewriting).
///
/// Usage: appendSegment() once per sealed entry range (ranges must be
/// adjacent, starting at 0), then finalize() exactly once to write the
/// directory. A file without finalize() has no footer; strict reads reject
/// it, salvage reads chain-scan the sealed segments.
class SegmentedTraceWriter {
public:
  explicit SegmentedTraceWriter(const std::string &Path,
                                size_t SegmentEntries = DefaultSegmentEntries,
                                bool WithViewIndex = true);
  ~SegmentedTraceWriter();
  SegmentedTraceWriter(const SegmentedTraceWriter &) = delete;
  SegmentedTraceWriter &operator=(const SegmentedTraceWriter &) = delete;

  bool ok() const;
  size_t segmentEntries() const;
  size_t entriesSealed() const;

  /// Seals entries [\p Begin, \p End) of \p T as the next segment. \p Begin
  /// must equal entriesSealed(). The fingerprint lane is persisted when
  /// T.Fps covers the range AND it is trustworthy: either the trace is
  /// fully fingerprinted (HasFingerprints) or the caller vouches for the
  /// range with \p TrustRangeFps — streaming recorders fill exactly the
  /// sealed range with computeFingerprintRange, which deliberately does
  /// not set the whole-trace flag.
  bool appendSegment(const Trace &T, size_t Begin, size_t End,
                     bool TrustRangeFps = false);

  /// Writes the footer directory + trailer and flushes. Returns overall
  /// success; the writer accepts no further segments.
  bool finalize();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

/// Writes \p T to \p Path in the segmented v4 format (see
/// SegmentedTraceWriter), splitting the entries into segments of
/// \p SegmentEntries.
bool writeTraceSegmented(const Trace &T, const std::string &Path,
                         size_t SegmentEntries = DefaultSegmentEntries,
                         bool WithViewIndex = true);

/// Writes \p T in a historical stream format (\p Version must be 1 or 2;
/// both share one layout). Kept so cross-format determinism and
/// back-compat tests can generate genuine old-format files.
bool writeTraceLegacy(const Trace &T, const std::string &Path,
                      uint32_t Version);

/// What actually happened during a read — filled in when ReadOptions
/// carries a Report pointer. Degradations are also counted process-wide
/// (`robust.view_index_dropped`, `robust.salvage.*`, `robust.io_retry`).
struct TraceReadReport {
  /// Salvage mode dropped damaged trailing data and returned a prefix.
  bool Salvaged = false;
  /// Entries in the returned trace (salvage mode only).
  uint64_t EntriesRecovered = 0;
  /// Entries the file declared but salvage could not recover.
  uint64_t EntriesDropped = 0;
  /// Segments of a v4 file whose entries salvage could not recover
  /// (damaged segments plus any suffix lost to side-table damage).
  uint64_t SegmentsDropped = 0;
  /// The persisted view index was damaged and dropped; the trace loads
  /// without it and view webs rebuild from the columns.
  bool ViewIndexDropped = false;
};

/// Options for readTrace.
struct ReadOptions {
  /// Recover the valid entry prefix of a damaged file instead of failing:
  /// v3 files keep every fully-checksummed leading column range (side
  /// tables must be intact), legacy files keep the entries that parsed
  /// before the damage. Off by default — strict reads reject damage.
  bool Salvage = false;
  /// Optional out-param describing degradations taken.
  TraceReadReport *Report = nullptr;
};

/// Reads a trace from \p Path (any supported version), interning all
/// strings into \p Strings. Errors carry an ErrClass and a stable
/// `trace.*` code (see trace/TraceError.h); a damaged persisted view
/// index alone is not an error — the index is dropped and the trace
/// loads without it.
Expected<Trace> readTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings);

/// As above, with salvage/reporting options.
Expected<Trace> readTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings,
                          const ReadOptions &Options);

/// Splits \p T into segments of at most \p MaxEntries entries and writes
/// them as "<BasePath>.segNNN". Returns the number of segments written, or
/// 0 on failure. Argument-pool and thread-table slices are rewritten
/// per-segment so each segment is a self-contained Trace.
unsigned writeTraceSegments(const Trace &T, const std::string &BasePath,
                            size_t MaxEntries);

/// Reassembles segments written by writeTraceSegments. Entry ids are
/// preserved; the result compares equal to the original trace.
Expected<Trace> readTraceSegments(const std::string &BasePath,
                                  unsigned NumSegments,
                                  std::shared_ptr<StringInterner> Strings);

/// Content digest of a trace file, for cache keying (DiffCache): two
/// paths with equal digests hold the same trace bytes. For v3 files this
/// hashes only the header and section table (whose records embed each
/// payload's checksum); legacy files hash in full. Errors on unreadable
/// or non-trace files.
Expected<uint64_t> traceFileDigest(const std::string &Path);

/// Renders the whole trace as text, one entry per line (debugging aid and
/// the `trace_inspect` example's output format).
std::string dumpTrace(const Trace &T);

} // namespace rprism

#endif // RPRISM_TRACE_SERIALIZE_H
