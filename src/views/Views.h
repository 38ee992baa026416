//===- views/Views.h - Semantic views over traces (Fig. 7) ----------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic views: named projections over a trace that aggregate entries
/// sharing a semantic trait (§2.4). The four view types:
///
///   TH  thread views        — all events of one thread, in order
///   CM  method views        — events occurring while a given (fully
///                             qualified) method is on top of the call stack
///   TO  target object views — events whose target is a given object
///   AO  active object views — events whose *executing* receiver is a given
///                             object (it is on top of the call stack)
///
/// Views are *linked*: each view stores original entry indices, so any
/// entry can be navigated from its position in one view to its position in
/// every other view it belongs to — the "web" of views.
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_VIEWS_VIEWS_H
#define RPRISM_VIEWS_VIEWS_H

#include "support/FlatIdTable.h"
#include "support/Hashing.h"
#include "trace/Trace.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace rprism {

/// The four view types of §2.4. The order is the family order of dense
/// view ids (all thread views first, then method, target-object,
/// active-object).
enum class ViewType : uint8_t { Thread, Method, TargetObject, ActiveObject };

/// The number of view families a web partitions a trace into.
inline constexpr size_t NumViewFamilies = 4;

const char *viewTypeName(ViewType Type);

/// One view: its identity plus the (ascending) entry ids it contains.
/// Entries is a slice of the owning ViewWeb's flat, family-ordered entry
/// array, valid as long as the web is.
struct View {
  ViewType Type = ViewType::Thread;
  uint32_t Id = 0; ///< Dense id within the owning ViewWeb.
  std::span<const uint32_t> Entries; ///< Entry ids, ascending.

  // Identity, depending on Type:
  uint32_t Tid = 0;       ///< Thread views.
  Symbol MethodName;      ///< Method views (qualified name).
  uint32_t Loc = NoLoc;   ///< Object views (location within this trace).

  /// Object views: representations observed at the first and last events,
  /// used by the X_TO/X_AO correlation heuristics (an object's value
  /// representation evolves during the run, so both endpoints are kept).
  ObjRepr FirstRepr;
  ObjRepr LastRepr;

  size_t size() const { return Entries.size(); }
};

/// Key -> family-local view id for one view family. Keys (tids, symbol
/// ids, store locations) below a bound proportional to the trace length
/// index a dense vector; the rare larger key goes to a small
/// open-addressing table. Nothing in a trace file bounds a store location,
/// so a hostile key costs one table slot, never an allocation sized by its
/// value.
class ViewKeyMap {
public:
  static constexpr uint32_t NoView = ~0u;

  explicit ViewKeyMap(uint32_t DenseBound = 0) : Bound(DenseBound) {}

  /// The id stored for \p Key, or NoView.
  uint32_t find(uint32_t Key) const {
    return Key < Dense.size() ? Dense[Key] : Sparse.find(Key);
  }

  /// The id slot of \p Key, created holding NoView when absent; the caller
  /// stores an id there before the next call, which may move the slot.
  uint32_t &slot(uint32_t Key) {
    return Key < Dense.size() ? Dense[Key] : slotSlow(Key);
  }

private:
  uint32_t &slotSlow(uint32_t Key);

  struct KeyHash {
    uint64_t operator()(uint32_t Key) const { return hashMix(0, Key); }
  };

  uint32_t Bound;
  std::vector<uint32_t> Dense;
  FlatIdTable<uint32_t, KeyHash> Sparse;
};

/// The full web of views for one trace.
class ViewWeb {
public:
  /// Builds every view of \p T in two passes over its tid, method, kind,
  /// target, and self columns: the first assigns family-local ids in
  /// first-appearance order and counts each view's entries, the second
  /// scatters each entry id into one flat family-ordered array. The trace
  /// must outlive the web. View ids are dense and family-grouped (all
  /// thread views first, then method, target-object, active-object, each
  /// in order of first appearance).
  explicit ViewWeb(const Trace &T);

  // Views point into Flat: moving keeps the array, copying would not.
  ViewWeb(ViewWeb &&) = default;
  ViewWeb &operator=(ViewWeb &&) = default;
  ViewWeb(const ViewWeb &) = delete;
  ViewWeb &operator=(const ViewWeb &) = delete;

  const Trace &trace() const { return *T; }

  const View &view(uint32_t ViewId) const { return Views[ViewId]; }
  size_t numViews() const { return Views.size(); }

  size_t numThreadViews() const { return familySize(ViewType::Thread); }
  size_t numMethodViews() const { return familySize(ViewType::Method); }
  size_t numTargetObjectViews() const {
    return familySize(ViewType::TargetObject);
  }
  size_t numActiveObjectViews() const {
    return familySize(ViewType::ActiveObject);
  }

  /// The views of family \p Type, in id order.
  std::span<const View> family(ViewType Type) const {
    return {Views.data() + FamilyBase[static_cast<size_t>(Type)],
            familySize(Type)};
  }

  /// Entry ids over all views: the length of the flat entry array.
  size_t numViewEntries() const { return FlatSize; }

  /// Lookups; null when no such view exists.
  const View *threadView(uint32_t Tid) const {
    return lookup(ViewType::Thread, Tid);
  }
  const View *methodView(Symbol QualName) const {
    return lookup(ViewType::Method, QualName.Id);
  }
  const View *targetObjectView(uint32_t Loc) const {
    return lookup(ViewType::TargetObject, Loc);
  }
  const View *activeObjectView(uint32_t Loc) const {
    return lookup(ViewType::ActiveObject, Loc);
  }

  /// All views containing entry \p Eid (the nu mappings of Fig. 7): its
  /// thread view, method view, target object view (if the event has a
  /// target), and active object view (if the context has a receiver).
  std::vector<uint32_t> viewsOf(uint32_t Eid) const;

  /// Position of \p Eid within \p V (index into V.Entries), or -1 when the
  /// entry is not a member. O(log n).
  static int64_t positionOf(const View &V, uint32_t Eid);

  /// Renders a view like the boxes of Fig. 2/13 (debugging/report aid).
  std::string render(const View &V, size_t MaxEntries = 50) const;

  /// Iterable list of all views.
  const std::vector<View> &views() const { return Views; }

private:
  size_t familySize(ViewType Type) const {
    size_t F = static_cast<size_t>(Type);
    return FamilyBase[F + 1] - FamilyBase[F];
  }
  const View *lookup(ViewType Type, uint32_t Key) const {
    size_t F = static_cast<size_t>(Type);
    uint32_t Local = Keys[F].find(Key);
    return Local == ViewKeyMap::NoView ? nullptr
                                       : &Views[FamilyBase[F] + Local];
  }

  const Trace *T;
  std::vector<View> Views;
  /// Every view's entry list, family by family, view by view.
  std::unique_ptr<uint32_t[]> Flat;
  size_t FlatSize = 0;
  /// Family F's views are ids [FamilyBase[F], FamilyBase[F + 1]).
  uint32_t FamilyBase[NumViewFamilies + 1] = {};
  /// Per family: key (tid, method symbol id, location) -> local id.
  ViewKeyMap Keys[NumViewFamilies];
};

} // namespace rprism

#endif // RPRISM_VIEWS_VIEWS_H
