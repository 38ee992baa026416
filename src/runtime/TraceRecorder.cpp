//===- runtime/TraceRecorder.cpp ------------------------------------------===//

#include "runtime/TraceRecorder.h"

#include "support/Hashing.h"

#include <algorithm>
#include <cstring>

using namespace rprism;

namespace {

/// Truncation limit for printable renderings, mirroring RPRISM's 128-char
/// toString cap (§5).
constexpr size_t MaxPrintable = 128;

std::string_view truncated(const std::string &Text) {
  std::string_view View(Text);
  return View.size() > MaxPrintable ? View.substr(0, MaxPrintable) : View;
}

} // namespace

TraceRecorder::TraceRecorder(const CompiledProgram &ProgIn,
                             const ObjectStore &StoreIn,
                             const StringInterner &RtStringsIn,
                             const TraceOptions &OptionsIn,
                             std::string TraceName)
    : Prog(ProgIn), Store(StoreIn), RtStrings(RtStringsIn),
      Options(OptionsIn) {
  Out.Name = std::move(TraceName);
  Out.Strings = Prog.Strings;
  ClassExcluded.resize(Prog.Classes.size(), false);
  ClassNoRepr.resize(Prog.Classes.size(), false);
  ClassScalarOnly.resize(Prog.Classes.size(), false);
  for (size_t I = 0; I != Prog.Classes.size(); ++I) {
    const std::string &Name = Prog.Strings->text(Prog.Classes[I].Name);
    ClassExcluded[I] = Options.ExcludeClasses.count(Name) != 0;
    ClassNoRepr[I] = Options.NoReprClasses.count(Name) != 0;
    // A field defaulting to Null is the only way a field can hold an
    // object; everything else is a scalar, so the object's structural
    // hash depends only on its own slots (validated by its own version).
    bool ScalarOnly = true;
    for (FieldDefaultKind Kind : Prog.Classes[I].FieldDefaults)
      ScalarOnly &= Kind != FieldDefaultKind::Null;
    ClassScalarOnly[I] = ScalarOnly;
  }

  // Pre-size the entry columns and argument pool from the program's code
  // size — a floor, not an estimate (entry counts scale with executed
  // instructions), but it removes the first reallocation doublings.
  size_t CodeUnits = 0;
  for (const CompiledMethod &M : Prog.Methods)
    CodeUnits += M.Code.size();
  size_t EntryHint =
      std::min<size_t>(std::max<size_t>(CodeUnits * 8, 1024), 1u << 20);
  Out.reserveEntries(EntryHint);
  Out.ArgOffsets.push_back(0);
  Out.ArgPool.reserve(EntryHint / 2);
  Out.Objects.push_back(ObjRepr()); // NoneObj.
  EntryCap = EntryHint;
  ArgCap = EntryHint / 2;
}

uint64_t TraceRecorder::structuralHash(uint32_t Loc, unsigned Depth,
                                       std::vector<uint32_t> &Visiting) {
  const HeapObj &Obj = Store.get(Loc);
  uint64_t H = hashMix(SeedObj, Prog.Classes[Obj.ClassId].Name.Id);
  if (Depth == 0)
    return H;
  // Cycle guard: a back-edge contributes only the class tag.
  if (std::find(Visiting.begin(), Visiting.end(), Loc) != Visiting.end())
    return H;
  Visiting.push_back(Loc);
  for (const Value &Field : Obj.Fields) {
    if (Field.K == Value::Kind::Obj) {
      uint32_t FieldLoc = Field.loc();
      const HeapObj &FieldObj = Store.get(FieldLoc);
      if (ClassNoRepr[FieldObj.ClassId])
        H = hashMix(H, hashMix(SeedObj, FieldObj.CreationSeq));
      else
        H = hashMix(H, structuralHash(FieldLoc, Depth - 1, Visiting));
    } else {
      H = hashMix(H, valueRepr(Field).hash());
    }
  }
  Visiting.pop_back();
  return H;
}

ObjRepr TraceRecorder::objRepr(uint32_t Loc) {
  if (Loc == NoLoc)
    return ObjRepr();
  if (Loc >= ObjMemo.size())
    ObjMemo.resize(Store.size());
  ObjMemoEntry &Memo = ObjMemo[Loc];
  const HeapObj &Obj = Store.get(Loc);
  if (ClassNoRepr[Obj.ClassId]) {
    // The paper's "empty representation" rule: correlation falls back to
    // the class-specific creation sequence number — immutable, so the
    // memo never invalidates.
    if (Memo.ReprValid) {
      ++MemoHits;
      return Memo.Repr;
    }
    ObjRepr Repr;
    Repr.Loc = Loc;
    Repr.ClassName = Prog.Classes[Obj.ClassId].Name;
    Repr.CreationSeq = Obj.CreationSeq;
    Repr.HasRepr = false;
    Repr.ValueHash = 0;
    Memo.Repr = Repr;
    Memo.ReprValid = 1;
    return Repr;
  }
  // +1 keeps a version-0 snapshot distinguishable from an empty memo.
  uint64_t Snap = ClassScalarOnly[Obj.ClassId]
                      ? static_cast<uint64_t>(Obj.Version) + 1
                      : Store.globalVersion() + 1;
  if (Memo.ReprValid && Memo.Snap == Snap) {
    ++MemoHits;
    return Memo.Repr;
  }
  ObjRepr Repr;
  Repr.Loc = Loc;
  Repr.ClassName = Prog.Classes[Obj.ClassId].Name;
  Repr.CreationSeq = Obj.CreationSeq;
  std::vector<uint32_t> Visiting;
  Repr.HasRepr = true;
  Repr.ValueHash = structuralHash(Loc, Options.ReprDepth, Visiting);
  // A recomputation that yields the same bytes keeps the object's row.
  if (!Memo.ReprValid || std::memcmp(&Memo.Repr, &Repr, sizeof(Repr)) != 0)
    Memo.Row = ObjMemoEntry::NoRow;
  Memo.Repr = Repr;
  Memo.Snap = Snap;
  Memo.ReprValid = 1;
  return Repr;
}

uint32_t TraceRecorder::objId(uint32_t Loc) {
  if (Loc == NoLoc)
    return NoneObj;
  ObjRepr Repr = objRepr(Loc);
  ObjMemoEntry &Memo = ObjMemo[Loc];
  if (Memo.Row == ObjMemoEntry::NoRow) {
    Memo.Row = static_cast<uint32_t>(Out.Objects.size());
    Out.Objects.push_back(Repr);
  }
  return Memo.Row;
}

ValueRepr TraceRecorder::valueRepr(const Value &V) {
  // Scalars carry their payload inline: no text is formatted or interned
  // at record time (Trace::renderValue renders them when a report asks).
  ValueRepr Repr;
  auto &Strings = *Out.Strings;
  switch (V.K) {
  case Value::Kind::Unit:
    Repr.Kind = ReprKind::Unit;
    break;
  case Value::Kind::Null:
    Repr.Kind = ReprKind::Null;
    break;
  case Value::Kind::Int:
    Repr.Kind = ReprKind::Int;
    Repr.Bits = static_cast<uint64_t>(V.I);
    break;
  case Value::Kind::Bool:
    Repr.Kind = ReprKind::Bool;
    Repr.Bits = V.I != 0;
    break;
  case Value::Kind::Float:
    Repr.Kind = ReprKind::Float;
    std::memcpy(&Repr.Bits, &V.F, sizeof(Repr.Bits));
    break;
  case Value::Kind::Str: {
    uint32_t Id = V.strId();
    if (Id >= StrMemo.size())
      StrMemo.resize(RtStrings.size());
    ValueRepr &Slot = StrMemo[Id];
    if (Slot.Kind != ReprKind::None) {
      ++MemoHits;
      return Slot;
    }
    const std::string &Text = RtStrings.text(Symbol{Id});
    Repr.Kind = ReprKind::Str;
    Repr.Bits = hashString(Text, SeedStr);
    Repr.Text = Strings.intern(truncated(Text));
    Slot = Repr;
    break;
  }
  case Value::Kind::Obj: {
    Repr.Kind = ReprKind::Obj;
    uint32_t Loc = V.loc();
    ObjRepr Obj = objRepr(Loc);
    Repr.Bits = Obj.HasRepr
                    ? Obj.ValueHash
                    : hashCombine(Obj.ClassName.Id, Obj.CreationSeq);
    if (Loc == NoLoc) {
      Repr.Text = Strings.intern(Strings.text(Obj.ClassName) + "-" +
                                 std::to_string(Obj.CreationSeq));
      break;
    }
    // The "Class-Seq" rendering is immutable per location.
    ObjMemoEntry &Memo = ObjMemo[Loc];
    if (!Memo.TextValid) {
      Memo.Text = Strings.intern(Strings.text(Obj.ClassName) + "-" +
                                 std::to_string(Obj.CreationSeq));
      Memo.TextValid = 1;
    } else {
      ++MemoHits;
    }
    Repr.Text = Memo.Text;
    break;
  }
  }
  return Repr;
}

bool TraceRecorder::filtered(const RecordContext &Ctx,
                             uint32_t TargetClassId) const {
  if (!Options.Enabled)
    return true;
  if (Ctx.MethodClass != ~0u && ClassExcluded[Ctx.MethodClass])
    return true;
  if (TargetClassId != ~0u && ClassExcluded[TargetClassId])
    return true;
  return false;
}

void TraceRecorder::emit(const RecordContext &Ctx, EventKind Kind,
                         Symbol Name, uint32_t Self, uint32_t Target,
                         const ValueRepr &Value, uint32_t Prov) {
  size_t I = StageLen;
  StTids[I] = Ctx.Tid;
  StMethods[I] = Ctx.Method;
  StSelfIds[I] = Self;
  StKinds[I] = static_cast<uint8_t>(Kind);
  StNames[I] = Name;
  StTargetIds[I] = Target;
  StValues[I] = Value;
  StArgEnds[I] = static_cast<uint32_t>(Out.ArgPool.size());
  StProvs[I] = Prov;
  if (++StageLen == StageCap)
    flushStage();
  // Fps is filled once by computeFingerprints at take().
}

void TraceRecorder::flushStage() {
  if (StageLen == 0)
    return;
  if (Out.size() + StageLen > EntryCap) {
    EntryCap = std::max(EntryCap * 4, Out.size() + StageLen);
    Out.reserveEntries(EntryCap);
  }
  Out.Tids.append(StTids, StageLen);
  Out.Methods.append(StMethods, StageLen);
  Out.SelfIds.append(StSelfIds, StageLen);
  Out.Kinds.append(StKinds, StageLen);
  Out.Names.append(StNames, StageLen);
  Out.TargetIds.append(StTargetIds, StageLen);
  Out.Values.append(StValues, StageLen);
  Out.ArgOffsets.append(StArgEnds, StageLen);
  Out.Provs.append(StProvs, StageLen);
  StageLen = 0;
}

Trace TraceRecorder::take() {
  flushStage();
  Out.computeFingerprints();
  return std::move(Out);
}

void TraceRecorder::pushArgs(const Value *Args, size_t NumArgs) {
  if (Out.ArgPool.size() + NumArgs > ArgCap) {
    ArgCap = std::max(ArgCap * 4, Out.ArgPool.size() + NumArgs);
    Out.ArgPool.reserve(ArgCap);
  }
  for (size_t I = 0; I != NumArgs; ++I)
    Out.ArgPool.push_back(valueRepr(Args[I]));
}

void TraceRecorder::recordCall(const RecordContext &Ctx, uint32_t TargetLoc,
                               Symbol QualMethod, const Value *Args,
                               size_t NumArgs, uint32_t Prov) {
  uint32_t TargetClass =
      TargetLoc == NoLoc ? ~0u : Store.get(TargetLoc).ClassId;
  if (filtered(Ctx, TargetClass))
    return;
  pushArgs(Args, NumArgs);
  uint32_t Self = objId(Ctx.SelfLoc);
  uint32_t Target = objId(TargetLoc);
  emit(Ctx, EventKind::Call, QualMethod, Self, Target, ValueRepr(), Prov);
}

void TraceRecorder::recordReturn(const RecordContext &Ctx,
                                 uint32_t TargetLoc, Symbol QualMethod,
                                 const Value &Ret, uint32_t Prov) {
  uint32_t TargetClass =
      TargetLoc == NoLoc ? ~0u : Store.get(TargetLoc).ClassId;
  if (filtered(Ctx, TargetClass))
    return;
  ValueRepr RetRepr = valueRepr(Ret);
  uint32_t Self = objId(Ctx.SelfLoc);
  uint32_t Target = objId(TargetLoc);
  emit(Ctx, EventKind::Return, QualMethod, Self, Target, RetRepr, Prov);
}

void TraceRecorder::recordGet(const RecordContext &Ctx, uint32_t TargetLoc,
                              Symbol Field, const Value &V, uint32_t Prov) {
  if (filtered(Ctx, Store.get(TargetLoc).ClassId))
    return;
  ValueRepr Repr = valueRepr(V);
  uint32_t Self = objId(Ctx.SelfLoc);
  uint32_t Target = objId(TargetLoc);
  emit(Ctx, EventKind::FieldGet, Field, Self, Target, Repr, Prov);
}

void TraceRecorder::recordSet(const RecordContext &Ctx, uint32_t TargetLoc,
                              Symbol Field, const Value &V, uint32_t Prov) {
  if (filtered(Ctx, Store.get(TargetLoc).ClassId))
    return;
  ValueRepr Repr = valueRepr(V);
  uint32_t Self = objId(Ctx.SelfLoc);
  uint32_t Target = objId(TargetLoc);
  emit(Ctx, EventKind::FieldSet, Field, Self, Target, Repr, Prov);
}

void TraceRecorder::recordInit(const RecordContext &Ctx, Symbol ClassName,
                               uint32_t NewLoc, const Value *Args,
                               size_t NumArgs, uint32_t Prov) {
  if (filtered(Ctx, Store.get(NewLoc).ClassId))
    return;
  pushArgs(Args, NumArgs);
  uint32_t Self = objId(Ctx.SelfLoc);
  uint32_t Target = objId(NewLoc);
  emit(Ctx, EventKind::Init, ClassName, Self, Target, ValueRepr(), Prov);
}

void TraceRecorder::recordFork(const RecordContext &Ctx, uint32_t ChildTid,
                               uint32_t Prov) {
  if (filtered(Ctx, ~0u))
    return;
  uint32_t Self = objId(Ctx.SelfLoc);
  Out.ChildTidTable.push_back({static_cast<uint32_t>(numEntries()), ChildTid});
  emit(Ctx, EventKind::Fork, Out.Threads[ChildTid].EntryMethod, Self,
       NoneObj, ValueRepr(), Prov);
}

void TraceRecorder::recordEnd(const RecordContext &Ctx, uint32_t Tid,
                              uint32_t Prov) {
  if (filtered(Ctx, ~0u))
    return;
  uint32_t Self = objId(Ctx.SelfLoc);
  Out.ChildTidTable.push_back({static_cast<uint32_t>(numEntries()), Tid});
  emit(Ctx, EventKind::End, Out.Threads[Tid].EntryMethod, Self, NoneObj,
       ValueRepr(), Prov);
}
