//===- views/Views.cpp ----------------------------------------------------===//

#include "views/Views.h"

#include "support/Telemetry.h"

#include <algorithm>
#include <sstream>

using namespace rprism;

const char *rprism::viewTypeName(ViewType Type) {
  switch (Type) {
  case ViewType::Thread:       return "thread";
  case ViewType::Method:       return "method";
  case ViewType::TargetObject: return "target-object";
  case ViewType::ActiveObject: return "active-object";
  }
  return "?";
}

/// True if the event kind carries a target object (FE/ME/KE events do;
/// fork/end do not). Shared with the view-index writer, which must
/// partition entries identically (trace/Event.h).
static bool hasTargetObject(EventKind Kind, const ObjRepr &Target) {
  return eventHasTargetObject(Kind, Target);
}

namespace {

/// One view family: views in first-appearance order with family-local ids.
/// Keys (tids, interned symbol ids, store locations) are small dense
/// integers, so the key -> local-id map is a direct-indexed vector — one
/// bounds check + load per entry on the build hot path instead of a hash
/// probe. The web's hash index is built once per family afterwards
/// (O(views), not O(entries)).
struct FamilyBuild {
  std::vector<View> Views;
  std::vector<uint32_t> Dense; ///< key -> local id; ~0u = no view yet.

  View &getOrCreate(uint32_t Key) {
    if (Key >= Dense.size())
      Dense.resize(Key + 1, ~0u);
    uint32_t &Slot = Dense[Key];
    if (Slot == ~0u) {
      Slot = static_cast<uint32_t>(Views.size());
      Views.emplace_back();
    }
    return Views[Slot];
  }
};

/// All four families (nu_TH, nu_CM, nu_TO, nu_AO) in one pass over the
/// keyed columns. TO/AO LastRepr is filled once at the end (each view's
/// last entry) rather than overwritten per entry — the per-entry struct
/// copy was measurable on long traces.
void buildAllFamilies(const Trace &T, FamilyBuild Families[4]) {
  const uint32_t *Tids = T.Tids.data();
  const Symbol *Methods = T.Methods.data();
  const uint8_t *Kinds = T.Kinds.data();
  const ObjRepr *Targets = T.Targets.data();
  const ObjRepr *Selfs = T.Selfs.data();
  uint32_t N = static_cast<uint32_t>(T.size());
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    View &TV = Families[0].getOrCreate(Tids[Eid]);
    if (TV.Entries.empty()) {
      TV.Type = ViewType::Thread;
      TV.Tid = Tids[Eid];
    }
    TV.Entries.push_back(Eid);

    View &MV = Families[1].getOrCreate(Methods[Eid].Id);
    if (MV.Entries.empty()) {
      MV.Type = ViewType::Method;
      MV.MethodName = Methods[Eid];
    }
    MV.Entries.push_back(Eid);

    if (hasTargetObject(static_cast<EventKind>(Kinds[Eid]), Targets[Eid])) {
      View &OV = Families[2].getOrCreate(Targets[Eid].Loc);
      if (OV.Entries.empty()) {
        OV.Type = ViewType::TargetObject;
        OV.Loc = Targets[Eid].Loc;
        OV.FirstRepr = Targets[Eid];
      }
      OV.Entries.push_back(Eid);
    }

    if (!Selfs[Eid].isNone()) {
      View &AV = Families[3].getOrCreate(Selfs[Eid].Loc);
      if (AV.Entries.empty()) {
        AV.Type = ViewType::ActiveObject;
        AV.Loc = Selfs[Eid].Loc;
        AV.FirstRepr = Selfs[Eid];
      }
      AV.Entries.push_back(Eid);
    }
  }
  for (View &V : Families[2].Views)
    V.LastRepr = Targets[V.Entries.back()];
  for (View &V : Families[3].Views)
    V.LastRepr = Selfs[V.Entries.back()];
}

} // namespace

ViewWeb::ViewWeb(const Trace &TIn, bool UseIndex) : T(&TIn) {
  // Warm path: a trace carrying its persisted partitioning skips the
  // entry scan — and the "web-build" span — entirely. The reconstruction
  // is O(views), not O(entries), and produces the identical web (same
  // dense ids, same entry lists; pinned by the ViewIndexProperty tests).
  if (UseIndex && TIn.ViewIdx.Present) {
    buildFromIndex(TIn.ViewIdx);
    return;
  }

  // Dense ids are family-grouped: the concatenation below numbers all
  // thread views first, then method, target-object, active-object.
  TelemetrySpan WebSpan("web-build");
  FamilyBuild Families[4];
  buildAllFamilies(*T, Families);

  std::unordered_map<uint32_t, uint32_t> *Indices[4] = {
      &ThreadIndex, &MethodIndex, &TargetIndex, &ActiveIndex};
  size_t Total = 0;
  for (const FamilyBuild &F : Families)
    Total += F.Views.size();
  Views.reserve(Total);
  for (size_t FI = 0; FI != 4; ++FI) {
    FamilyBuild &F = Families[FI];
    uint32_t Offset = static_cast<uint32_t>(Views.size());
    for (View &V : F.Views) {
      V.Id = Offset + static_cast<uint32_t>(&V - F.Views.data());
      Views.push_back(std::move(V));
    }
    Indices[FI]->reserve(F.Views.size());
    for (uint32_t Key = 0; Key != F.Dense.size(); ++Key)
      if (F.Dense[Key] != ~0u)
        Indices[FI]->emplace(Key, Offset + F.Dense[Key]);
  }
  Telemetry::counterAdd("web.views", Views.size());
}

void ViewWeb::buildFromIndex(const ViewIndex &Idx) {
  TelemetrySpan Span("view-index");
  const ObjRepr *Targets = T->Targets.data();
  const ObjRepr *Selfs = T->Selfs.data();
  std::unordered_map<uint32_t, uint32_t> *Indices[NumViewFamilies] = {
      &ThreadIndex, &MethodIndex, &TargetIndex, &ActiveIndex};
  constexpr ViewType FamilyType[NumViewFamilies] = {
      ViewType::Thread, ViewType::Method, ViewType::TargetObject,
      ViewType::ActiveObject};

  Views.reserve(Idx.numViews());
  const uint32_t *Flat = Idx.Entries.data();
  size_t Offset = 0;
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    size_t NumViews = Idx.Keys[F].size();
    Indices[F]->reserve(NumViews);
    for (size_t VI = 0; VI != NumViews; ++VI) {
      uint32_t Key = Idx.Keys[F][VI];
      uint32_t Count = Idx.Counts[F][VI];
      View V;
      V.Type = FamilyType[F];
      V.Id = static_cast<uint32_t>(Views.size());
      V.Entries.borrow(Flat + Offset, Count);
      switch (FamilyType[F]) {
      case ViewType::Thread:
        V.Tid = Key;
        break;
      case ViewType::Method:
        V.MethodName = Symbol{Key};
        break;
      case ViewType::TargetObject:
      case ViewType::ActiveObject: {
        // The representation endpoints are not persisted — they are two
        // column loads per view (first and last member entry), the same
        // values the scan builders record.
        const ObjRepr *Col =
            FamilyType[F] == ViewType::TargetObject ? Targets : Selfs;
        V.Loc = Key;
        V.FirstRepr = Col[Flat[Offset]];
        V.LastRepr = Col[Flat[Offset + Count - 1]];
        break;
      }
      }
      Indices[F]->emplace(Key, V.Id);
      Views.push_back(std::move(V));
      Offset += Count;
    }
  }
  Telemetry::counterAdd("web.views", Views.size());
  Telemetry::counterAdd("web.from_index", 1);
}

const View *ViewWeb::threadView(uint32_t Tid) const {
  auto It = ThreadIndex.find(Tid);
  return It == ThreadIndex.end() ? nullptr : &Views[It->second];
}

const View *ViewWeb::methodView(Symbol QualName) const {
  auto It = MethodIndex.find(QualName.Id);
  return It == MethodIndex.end() ? nullptr : &Views[It->second];
}

const View *ViewWeb::targetObjectView(uint32_t Loc) const {
  auto It = TargetIndex.find(Loc);
  return It == TargetIndex.end() ? nullptr : &Views[It->second];
}

const View *ViewWeb::activeObjectView(uint32_t Loc) const {
  auto It = ActiveIndex.find(Loc);
  return It == ActiveIndex.end() ? nullptr : &Views[It->second];
}

std::vector<uint32_t> ViewWeb::viewsOf(uint32_t Eid) const {
  std::vector<uint32_t> Result;
  if (auto It = ThreadIndex.find(T->tid(Eid)); It != ThreadIndex.end())
    Result.push_back(It->second);
  if (auto It = MethodIndex.find(T->method(Eid).Id); It != MethodIndex.end())
    Result.push_back(It->second);
  if (hasTargetObject(T->kind(Eid), T->target(Eid)))
    if (auto It = TargetIndex.find(T->target(Eid).Loc);
        It != TargetIndex.end())
      Result.push_back(It->second);
  if (!T->self(Eid).isNone())
    if (auto It = ActiveIndex.find(T->self(Eid).Loc); It != ActiveIndex.end())
      Result.push_back(It->second);
  return Result;
}

int64_t ViewWeb::positionOf(const View &V, uint32_t Eid) {
  auto It = std::lower_bound(V.Entries.begin(), V.Entries.end(), Eid);
  if (It == V.Entries.end() || *It != Eid)
    return -1;
  return It - V.Entries.begin();
}

std::string ViewWeb::render(const View &V, size_t MaxEntries) const {
  std::ostringstream OS;
  OS << viewTypeName(V.Type) << " view ";
  switch (V.Type) {
  case ViewType::Thread:
    OS << "thread-" << V.Tid;
    break;
  case ViewType::Method:
    OS << T->Strings->text(V.MethodName);
    break;
  case ViewType::TargetObject:
  case ViewType::ActiveObject:
    OS << T->renderObj(V.FirstRepr);
    break;
  }
  OS << " (" << V.Entries.size() << " entries)\n";
  size_t Shown = 0;
  for (uint32_t Eid : V.Entries) {
    if (Shown++ == MaxEntries) {
      OS << "  ...\n";
      break;
    }
    OS << "  [" << Eid << "] " << T->renderEntry(Eid) << '\n';
  }
  return OS.str();
}
