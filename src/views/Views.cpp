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

uint32_t &ViewKeyMap::slotSlow(uint32_t Key) {
  if (Key >= Bound)
    return Sparse.slot(Key);
  // Grow geometrically, never past the bound (Key + 1 <= Bound).
  size_t Size =
      std::min<size_t>(std::max<size_t>(Key + 1, Dense.size() * 2), Bound);
  Dense.resize(Size, NoView);
  return Dense[Key];
}

ViewWeb::ViewWeb(const Trace &TIn) : T(&TIn) {
  TelemetrySpan WebSpan("web-build");
  const uint32_t *Tids = T->Tids.data();
  const Symbol *Methods = T->Methods.data();
  const uint8_t *Kinds = T->Kinds.data();
  const ObjRepr *Targets = T->Targets.data();
  const ObjRepr *Selfs = T->Selfs.data();
  const uint32_t N = static_cast<uint32_t>(T->size());

  // Keys below twice the entry count index dense tables; larger ones (a
  // symbol id of a big shared interner, a hostile location) are rare.
  uint32_t Bound = static_cast<uint32_t>(
      std::min<uint64_t>(uint64_t{N} * 2 + 1024, ViewKeyMap::NoView));
  for (ViewKeyMap &Map : Keys)
    Map = ViewKeyMap(Bound);

  // Pass 1: family-local ids in first-appearance order, entry counts.
  std::vector<uint32_t> FamilyKeys[NumViewFamilies];
  std::vector<uint32_t> Counts[NumViewFamilies];
  auto Count = [&](size_t F, uint32_t Key) {
    uint32_t &Local = Keys[F].slot(Key);
    if (Local == ViewKeyMap::NoView) {
      Local = static_cast<uint32_t>(FamilyKeys[F].size());
      FamilyKeys[F].push_back(Key);
      Counts[F].push_back(0);
    }
    ++Counts[F][Local];
  };
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    Count(0, Tids[Eid]);
    Count(1, Methods[Eid].Id);
    if (eventHasTargetObject(static_cast<EventKind>(Kinds[Eid]),
                             Targets[Eid]))
      Count(2, Targets[Eid].Loc);
    if (!Selfs[Eid].isNone())
      Count(3, Selfs[Eid].Loc);
  }

  // Prefix sum: each view's slice of the flat array, family by family.
  // Cursor[F][Local] is where the view's next entry id goes.
  std::vector<size_t> Cursor[NumViewFamilies];
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    Cursor[F].resize(Counts[F].size());
    for (size_t Local = 0; Local != Counts[F].size(); ++Local) {
      Cursor[F][Local] = FlatSize;
      FlatSize += Counts[F][Local];
    }
  }

  // Pass 2: scatter every entry id into its views' slices. Ascending eids
  // make each slice ascending.
  Flat = std::make_unique_for_overwrite<uint32_t[]>(FlatSize);
  uint32_t *Out = Flat.get();
  for (uint32_t Eid = 0; Eid != N; ++Eid) {
    Out[Cursor[0][Keys[0].find(Tids[Eid])]++] = Eid;
    Out[Cursor[1][Keys[1].find(Methods[Eid].Id)]++] = Eid;
    if (eventHasTargetObject(static_cast<EventKind>(Kinds[Eid]),
                             Targets[Eid]))
      Out[Cursor[2][Keys[2].find(Targets[Eid].Loc)]++] = Eid;
    if (!Selfs[Eid].isNone())
      Out[Cursor[3][Keys[3].find(Selfs[Eid].Loc)]++] = Eid;
  }

  // The views, each written once: a cursor now marks its slice's end.
  // Object views keep the representations at their first and last events.
  size_t NumViews = 0;
  for (size_t F = 0; F != NumViewFamilies; ++F)
    NumViews += Counts[F].size();
  Views.reserve(NumViews);
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    FamilyBase[F] = static_cast<uint32_t>(Views.size());
    const ObjRepr *Col = F == 2 ? Targets : F == 3 ? Selfs : nullptr;
    for (size_t Local = 0; Local != Counts[F].size(); ++Local) {
      View &V = Views.emplace_back();
      V.Type = static_cast<ViewType>(F);
      V.Id = static_cast<uint32_t>(Views.size() - 1);
      V.Entries = {Out + Cursor[F][Local] - Counts[F][Local],
                   Counts[F][Local]};
      uint32_t Key = FamilyKeys[F][Local];
      if (F == 0) {
        V.Tid = Key;
      } else if (F == 1) {
        V.MethodName = Symbol{Key};
      } else {
        V.Loc = Key;
        V.FirstRepr = Col[V.Entries.front()];
        V.LastRepr = Col[V.Entries.back()];
      }
    }
  }
  FamilyBase[NumViewFamilies] = static_cast<uint32_t>(Views.size());
  Telemetry::counterAdd("web.views", Views.size());
}

std::vector<uint32_t> ViewWeb::viewsOf(uint32_t Eid) const {
  std::vector<uint32_t> Result;
  auto Add = [&](const View *V) {
    if (V)
      Result.push_back(V->Id);
  };
  Add(threadView(T->tid(Eid)));
  Add(methodView(T->method(Eid)));
  if (eventHasTargetObject(T->kind(Eid), T->target(Eid)))
    Add(targetObjectView(T->target(Eid).Loc));
  if (!T->self(Eid).isNone())
    Add(activeObjectView(T->self(Eid).Loc));
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
