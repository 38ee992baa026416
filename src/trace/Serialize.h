//===- trace/Serialize.h - Trace (de)serialization ------------------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Binary serialization of traces. RPRISM collects traces online but
/// analyzes them offline "after the trace data has been serialized to disk"
/// (§5). The paper also segments traces during collection to bound tracing
/// memory; here a trace is recorded in memory and written whole, so a file
/// holds exactly one segment.
///
/// There is one on-disk format (version word 7): a file header, one
/// segment, a footer directory listing that segment, and a fixed trailer.
/// The segment is a header, a table of (id, offset, length, checksum)
/// section records, and 8-byte-aligned payloads: the entry columns written
/// verbatim (receiver and target as u32 object ids, argument slices as one
/// N+1 offset column), an optional fingerprint lane, and the side tables
/// (strings, threads, argument pool, object table, fork/end child tids). A
/// directory listing any other number of segments is corrupt. View webs
/// are not persisted: they are rebuilt from the columns on every load.
///
/// Readers mmap the file (falling back to an aligned arena read), verify
/// every section checksum, and validate the untrusted bytes (kinds, thread
/// ids, symbol ids, object ids, argument offsets, child-tid rows). A file
/// whose string table interns to identical symbol ids — a fresh interner,
/// or one already holding this exact table — is then *borrowed*
/// zero-copy: the columns, side tables, and fingerprint lane stay in the
/// mapping, so loading skips re-fingerprinting entirely. A file whose
/// symbols re-intern to different ids is materialized and remapped.
///
/// Symbols are file-local on disk; readers re-intern through the supplied
/// StringInterner, so traces written by different runs can be loaded into
/// one shared interner for differencing. Files with any other version word
/// (the retired stream, whole-trace, pre-inline-payload, and inline-object
/// layouts) are rejected as unsupported.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_SERIALIZE_H
#define RPRISM_TRACE_SERIALIZE_H

#include "support/Expected.h"
#include "trace/Trace.h"

#include <string>

namespace rprism {

/// Writes \p T to \p Path as a one-segment file. Returns false on I/O
/// failure.
bool writeTrace(const Trace &T, const std::string &Path);

/// What actually happened during a read — filled in when ReadOptions
/// carries a Report pointer. Degradations are also counted process-wide
/// (`robust.salvage.*`, `robust.io_retry`).
struct TraceReadReport {
  /// Salvage mode dropped damaged trailing data and returned a prefix.
  bool Salvaged = false;
  /// Entries in the returned trace (salvage mode only).
  uint64_t EntriesRecovered = 0;
  /// Entries the file declared but salvage could not recover.
  uint64_t EntriesDropped = 0;
};

/// Options for readTrace.
struct ReadOptions {
  /// Recover what a damaged file still holds instead of failing: the
  /// longest prefix of entries that every entry column covers and that
  /// validates. A checksum-failed column covers none; a column the file
  /// ends inside covers its surviving bytes. Damaged side tables leave
  /// nothing to recover. Off by default — strict reads reject damage.
  bool Salvage = false;
  /// Optional out-param describing degradations taken.
  TraceReadReport *Report = nullptr;
};

/// Reads a trace from \p Path, interning all
/// strings into \p Strings. Errors carry an ErrClass and a stable
/// `trace.*` code (see trace/TraceError.h).
Expected<Trace> readTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings);

/// As above, with salvage/reporting options.
Expected<Trace> readTrace(const std::string &Path,
                          std::shared_ptr<StringInterner> Strings,
                          const ReadOptions &Options);

/// Renders the whole trace as text, one entry per line (debugging aid and
/// the `trace_inspect` example's output format).
std::string dumpTrace(const Trace &T);

} // namespace rprism

#endif // RPRISM_TRACE_SERIALIZE_H
