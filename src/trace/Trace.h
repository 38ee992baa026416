//===- trace/Trace.h - Execution traces (columnar storage) ----------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A Trace is the sequence of entries produced by one program run, plus the
/// side tables entries reference: the argument pool and the thread table
/// (spawn ancestry for the fork(S)/end(S) events — the paper tracks the
/// full creation context of a thread's ancestry to correlate threads across
/// traces). The string interner is shared: a DiffSession interns both
/// traces' names in one table so symbols compare across versions.
///
/// Storage is *columnar* (structure of arrays): each logical TraceEntry
/// field lives in its own contiguous column indexed by eid. The pipeline
/// stages are memory-bound, and each stage reads only a few fields — the
/// view-web build keys on tid/method/target/self, the lock-step evaluator
/// on the fingerprint column, the render paths on everything — so packing
/// per-field keeps each stage's working set to exactly the bytes it
/// touches. Only what the analyses read is stored per entry: the receiver
/// and target objects are 4-byte ids into one per-trace object table
/// (distinct representations number a fraction of the entries), argument
/// slices are one N+1 offset column, and the rare fork/end child tids sit
/// in an (eid, tid) side table. Columns are either owned (a vector) or
/// *borrowed* zero-copy views into a memory-mapped one-segment trace file;
/// `Backing` keeps the mapping alive. The eid of an entry is its index:
/// the recorder assigns eids densely, so no Eid column is stored.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_TRACE_TRACE_H
#define RPRISM_TRACE_TRACE_H

#include "trace/Event.h"

#include <cassert>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

namespace rprism {

/// One column of the columnar trace: a contiguous array of a trivially
/// copyable element type. Either *owning* (backed by its own vector) or
/// *borrowed* (a pointer/length view into memory owned elsewhere — the
/// mmap arena of a trace file, kept alive by Trace::Backing). Reads go
/// through (Ptr, Len) either way; any mutation of a borrowed column first
/// detaches it (copies the bytes into owned storage).
template <typename T> class Column {
  static_assert(std::is_trivially_copyable_v<T>,
                "columns hold packed value types");

public:
  Column() = default;

  // Copies deep-copy into owned storage (trace copies are rare: tests and
  // benchmarks); moves transfer the vector, whose data pointer is stable.
  Column(const Column &Other) { assignFrom(Other); }
  Column &operator=(const Column &Other) {
    if (this != &Other)
      assignFrom(Other);
    return *this;
  }
  Column(Column &&Other) noexcept
      : Own(std::move(Other.Own)), Ptr(Other.Ptr), Len(Other.Len),
        Borrowed(Other.Borrowed) {
    Other.reset();
  }
  Column &operator=(Column &&Other) noexcept {
    if (this != &Other) {
      Own = std::move(Other.Own);
      Ptr = Other.Ptr;
      Len = Other.Len;
      Borrowed = Other.Borrowed;
      Other.reset();
    }
    return *this;
  }

  size_t size() const { return Len; }
  bool empty() const { return Len == 0; }
  const T *data() const { return Ptr; }
  const T *begin() const { return Ptr; }
  const T *end() const { return Ptr + Len; }
  const T &operator[](size_t I) const { return Ptr[I]; }
  const T &back() const { return Ptr[Len - 1]; }
  bool borrowed() const { return Borrowed; }
  uint64_t byteSize() const { return static_cast<uint64_t>(Len) * sizeof(T); }

  void clear() {
    Own.clear();
    reset();
  }

  void reserve(size_t N) {
    detach();
    Own.reserve(N);
    Ptr = Own.data();
  }

  void push_back(const T &V) {
    detach();
    Own.push_back(V);
    Ptr = Own.data();
    Len = Own.size();
  }

  void resize(size_t N) {
    detach();
    Own.resize(N);
    Ptr = Own.data();
    Len = N;
  }

  void append(const T *Data, size_t N) {
    detach();
    Own.insert(Own.end(), Data, Data + N);
    Ptr = Own.data();
    Len = Own.size();
  }

  /// Mutable element access; detaches a borrowed column.
  T &mut(size_t I) {
    detach();
    return Own[I];
  }

  /// Mutable raw access to the whole column; detaches a borrowed column.
  T *mutData() {
    detach();
    return Own.data();
  }

  /// Points the column at externally owned memory (zero-copy load path).
  /// The caller guarantees the memory outlives the column (Trace::Backing).
  void borrow(const T *Data, size_t N) {
    Own.clear();
    Ptr = Data;
    Len = N;
    Borrowed = true;
  }

  /// Materializes a borrowed column into owned storage; no-op when owned.
  void detach() {
    if (!Borrowed)
      return;
    Own.assign(Ptr, Ptr + Len);
    Ptr = Own.data();
    Borrowed = false;
  }

private:
  void assignFrom(const Column &Other) {
    Own.assign(Other.Ptr, Other.Ptr + Other.Len);
    Ptr = Own.data();
    Len = Own.size();
    Borrowed = false;
  }

  void reset() {
    Ptr = Own.data();
    Len = Own.size();
    Borrowed = false;
  }

  std::vector<T> Own;
  const T *Ptr = nullptr;
  size_t Len = 0;
  bool Borrowed = false;
};

/// Per-thread spawn ancestry. The spawn stack is the sequence of qualified
/// method names on the spawning thread's call stack at the spawn point;
/// AncestryHash chains the parent's ancestry hash with this spawn stack, so
/// two threads with identical full ancestries collide (intentionally — that
/// is the thread-correlation signal, X_TH).
struct ThreadInfo {
  uint32_t Tid = 0;
  uint32_t ParentTid = 0;      ///< == Tid for the main thread.
  Symbol EntryMethod;          ///< Qualified method the thread runs.
  std::vector<Symbol> SpawnStack; ///< Parent's call stack at spawn.
  uint64_t AncestryHash = 0;
};

/// One row of the fork/end side table: entry \p Eid is a fork or end event
/// whose spawned or ending thread is \p Tid. Rows are in ascending eid
/// order, exactly one per fork/end entry.
struct ChildTidRow {
  uint32_t Eid = 0;
  uint32_t Tid = 0;
};

static_assert(sizeof(ChildTidRow) == 8 &&
                  std::is_trivially_copyable_v<ChildTidRow>,
              "ChildTidRow is a packed on-disk table element");

/// A full execution trace, stored as columns indexed by eid (see the file
/// comment). Hot paths read single columns through the accessors;
/// entry(eid) materializes a full TraceEntry for rendering, tests, and
/// other cold paths.
struct Trace {
  std::string Name; ///< For reports ("orig/regressing-input", ...).
  std::shared_ptr<StringInterner> Strings;

  // -- Entry columns (length size(), eid == index; ArgOffsets size() + 1) --
  Column<uint32_t> Tids;       ///< Executing thread.
  Column<Symbol> Methods;      ///< Qualified executing method.
  Column<uint32_t> SelfIds;    ///< Receiver of the executing method.
  Column<uint8_t> Kinds;       ///< EventKind, stored as raw bytes.
  Column<Symbol> Names;        ///< Event name (field/method/class).
  Column<uint32_t> TargetIds;  ///< Event target object.
  Column<ValueRepr> Values;    ///< Carried value (get/set/return).
  /// Entry K's arguments are ArgPool[ArgOffsets[K], ArgOffsets[K + 1]).
  Column<uint32_t> ArgOffsets;
  Column<uint32_t> Provs;      ///< AST NodeId provenance (scoring only).
  Column<uint64_t> Fps;        ///< Equality fingerprints.

  // -- Side tables --------------------------------------------------------
  /// Object representations; SelfIds and TargetIds index it. A row is a
  /// (location, representation) state: an object whose representation
  /// changes gets a new row, so ids are per-trace and never compared
  /// across traces (equality compares the rows' content).
  Column<ObjRepr> Objects;
  Column<ChildTidRow> ChildTidTable; ///< Fork/end child tids, by eid.
  Column<ValueRepr> ArgPool;
  std::vector<ThreadInfo> Threads;

  /// Keep-alive for borrowed columns: the mmap'd (or arena-read) bytes of
  /// a one-segment trace file. Null for fully owned traces.
  std::shared_ptr<void> Backing;

  /// True when every entry's fingerprint is current. Set by
  /// computeFingerprints (called at trace-finalize and deserialize time) or
  /// by the zero-copy loader (fingerprints load verbatim when symbol
  /// ids are preserved); false for hand-built traces, which then compare on
  /// the slow path only.
  bool HasFingerprints = false;

  size_t size() const { return Kinds.size(); }

  // -- Column accessors (hot paths) ---------------------------------------
  uint32_t tid(uint32_t Eid) const { return Tids[Eid]; }
  Symbol method(uint32_t Eid) const { return Methods[Eid]; }
  const ObjRepr &object(uint32_t ObjId) const { return Objects[ObjId]; }
  const ObjRepr &self(uint32_t Eid) const { return Objects[SelfIds[Eid]]; }
  EventKind kind(uint32_t Eid) const {
    return static_cast<EventKind>(Kinds[Eid]);
  }
  Symbol name(uint32_t Eid) const { return Names[Eid]; }
  const ObjRepr &target(uint32_t Eid) const {
    return Objects[TargetIds[Eid]];
  }
  const ValueRepr &value(uint32_t Eid) const { return Values[Eid]; }
  /// Fork/end: the spawned or ending thread (0 for every other entry).
  uint32_t childTid(uint32_t Eid) const;
  uint32_t prov(uint32_t Eid) const { return Provs[Eid]; }
  uint64_t fp(uint32_t Eid) const { return Fps[Eid]; }
  uint32_t numArgs(uint32_t Eid) const {
    return ArgOffsets[Eid + 1] - ArgOffsets[Eid];
  }
  const ValueRepr *args(uint32_t Eid) const {
    return ArgPool.data() + ArgOffsets[Eid];
  }

  /// Materializes entry \p Eid as a value (Eid field set to the index).
  TraceEntry entry(uint32_t Eid) const;

  /// Appends \p Entry, scattering its fields into the columns. The Eid
  /// field is ignored: the entry's eid is its index. Its Self and Target
  /// reuse the last object row when byte-equal to it, else add a row. An
  /// entry with arguments must continue the pool: its ArgsBegin is the
  /// previous entry's end, so the slices stay one offset column.
  void append(const TraceEntry &Entry);

  /// Pre-sizes every entry column for \p N entries (recorders call this
  /// with a bytecode-derived hint so steady-state recording never
  /// reallocates early). Fps is excluded: computeFingerprints sizes it
  /// once at finalize time.
  void reserveEntries(size_t N);

  /// Fingerprint of entry \p Eid, read from the columns. Pure function of
  /// the entry fields, the argument pool, the object and thread tables.
  uint64_t entryFingerprint(uint32_t Eid) const;

  /// Fingerprint of a materialized entry (reference path; must agree with
  /// the index-based overload for materialized entries of this trace).
  uint64_t entryFingerprint(const TraceEntry &Entry) const;

  /// Fills the fingerprint column and sets HasFingerprints.
  void computeFingerprints();

  /// Argument list of a materialized event, as a span into the pool.
  const ValueRepr *argsBegin(const Event &Ev) const {
    return ArgPool.data() + Ev.ArgsBegin;
  }
  const ValueRepr *argsEnd(const Event &Ev) const {
    return ArgPool.data() + Ev.ArgsEnd;
  }

  /// Bytes held by the entry columns and side tables (the columnar
  /// footprint reported as bytes_per_entry in benchmarks).
  uint64_t storageBytes() const;

  /// Renders entry \p Eid as a human-readable line ("--> NUM-1.new(32,
  /// 127)" style, following Fig. 13).
  std::string renderEntry(uint32_t Eid) const;

  /// Renders a materialized entry (same output as the index overload).
  std::string renderEntry(const TraceEntry &Entry) const;

  /// Renders an object representation ("NUM-1" = first NUM instance).
  std::string renderObj(const ObjRepr &Obj) const;

  /// Renders a value representation: scalars from their inline payload
  /// (std::to_string, "%.6g", true/false, unit/null), Str quoted, Obj as
  /// its "Class-Seq" text.
  std::string renderValue(const ValueRepr &Value) const;
};

/// Counts trace-entry compare operations; the paper's speedup metric
/// (Fig. 14b) is LCS compare ops divided by views-based compare ops.
struct CompareCounter {
  uint64_t Count = 0;
  void tick() { ++Count; }
};

/// Event equality =e over column indices: kind, names, and the underlying
/// (version-stable) value representations; never raw locations. \p Counter,
/// when non-null, is ticked once per invocation.
bool eventEquals(const Trace &TA, uint32_t A, const Trace &TB, uint32_t B,
                 CompareCounter *Counter = nullptr);

/// =e over materialized entries (reference path for value-type entries;
/// agrees with the index overload when the entries were materialized from
/// the given traces).
bool eventEquals(const Trace &TA, const TraceEntry &A, const Trace &TB,
                 const TraceEntry &B, CompareCounter *Counter = nullptr);

} // namespace rprism

#endif // RPRISM_TRACE_TRACE_H
