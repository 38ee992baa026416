//===- tests/ViewsTest.cpp - View web and correlation tests ---------------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//

#include "correlate/Correlate.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "trace/Serialize.h"
#include "views/Views.h"
#include "workload/Generator.h"
#include "workload/Mutator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <map>
#include <tuple>
#include <unistd.h>

using namespace rprism;

namespace {

/// Runs a source program with a shared interner and returns its trace.
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

/// Materializes every entry of \p T (the columnar trace stores entries
/// scattered across columns; tests iterate whole entries).
std::vector<TraceEntry> materialize(const Trace &T) {
  std::vector<TraceEntry> Out;
  Out.reserve(T.size());
  for (uint32_t Eid = 0; Eid != T.size(); ++Eid)
    Out.push_back(T.entry(Eid));
  return Out;
}

const char *CounterProgram = R"(
  class Counter {
    Int count;
    Counter(Int start) { this.count = start; }
    Int next() { this.count = this.count + 1; return this.count; }
    Int peek() { return this.count; }
  }
  main {
    var a = new Counter(0);
    var b = new Counter(100);
    a.next();
    b.next();
    a.next();
    print(a.peek() + b.peek());
  }
)";

//===----------------------------------------------------------------------===//
// View web structure
//===----------------------------------------------------------------------===//

TEST(ViewWeb, EveryEntryIsInItsThreadAndMethodViews) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  for (const TraceEntry &Entry : materialize(T)) {
    const View *TV = Web.threadView(Entry.Tid);
    ASSERT_TRUE(TV != nullptr);
    EXPECT_GE(ViewWeb::positionOf(*TV, Entry.Eid), 0);

    const View *MV = Web.methodView(Entry.Method);
    ASSERT_TRUE(MV != nullptr);
    EXPECT_GE(ViewWeb::positionOf(*MV, Entry.Eid), 0);
  }
}

TEST(ViewWeb, SingleThreadViewEqualsWholeTrace) {
  // "The example is single threaded, so there is a single thread view which
  // is identical to the full execution trace" (Fig. 2).
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  EXPECT_EQ(Web.numThreadViews(), 1u);
  const View *TV = Web.threadView(0);
  ASSERT_TRUE(TV != nullptr);
  ASSERT_EQ(TV->Entries.size(), T.size());
  for (size_t I = 0; I != TV->Entries.size(); ++I)
    EXPECT_EQ(TV->Entries[I], I);
}

TEST(ViewWeb, TargetObjectViewContainsOnlyThatObjectsEvents) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  // Find Counter-1 (object a) via its init event.
  uint32_t Loc = NoLoc;
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Kind == EventKind::Init &&
        T.Strings->text(Entry.Ev.Target.ClassName) == "Counter" &&
        Entry.Ev.Target.CreationSeq == 1) {
      Loc = Entry.Ev.Target.Loc;
      break;
    }
  }
  ASSERT_NE(Loc, NoLoc);
  const View *OV = Web.targetObjectView(Loc);
  ASSERT_TRUE(OV != nullptr);
  EXPECT_FALSE(OV->Entries.empty());
  for (uint32_t Eid : OV->Entries)
    EXPECT_EQ(T.target(Eid).Loc, Loc) << T.renderEntry(Eid);
  // a receives: init, 2 next() calls + returns, 1 peek() call + return,
  // plus field gets/sets targeted at it from inside its methods.
  EXPECT_GE(OV->Entries.size(), 6u);
}

TEST(ViewWeb, ActiveObjectViewHoldsEventsWhileObjectExecutes) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  for (const View &V : Web.views()) {
    if (V.Type != ViewType::ActiveObject)
      continue;
    for (uint32_t Eid : V.Entries)
      EXPECT_EQ(T.self(Eid).Loc, V.Loc);
  }
}

TEST(ViewWeb, MethodViewMatchesFig2Semantics) {
  // A method view contains events occurring while the method is on top of
  // the call stack — i.e. calls *made from* it, field accesses *performed
  // by* it (Fig. 2's SP.setRequestType box).
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  Symbol NextSym = T.Strings->intern("Counter.next");
  const View *MV = Web.methodView(NextSym);
  ASSERT_TRUE(MV != nullptr);
  for (uint32_t Eid : MV->Entries) {
    EXPECT_EQ(T.Strings->text(T.method(Eid)), "Counter.next");
    // next() performs field gets and sets only.
    EXPECT_TRUE(T.kind(Eid) == EventKind::FieldGet ||
                T.kind(Eid) == EventKind::FieldSet)
        << T.renderEntry(Eid);
  }
  EXPECT_EQ(MV->Entries.size(), 9u); // 3 calls x (get, get, set).
}

TEST(ViewWeb, ViewsOfEntryLinksAllViewTypes) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  // Pick a field-set inside Counter.next: it belongs to 4 views.
  for (const TraceEntry &Entry : materialize(T)) {
    if (Entry.Ev.Kind != EventKind::FieldSet)
      continue;
    if (T.Strings->text(Entry.Method) != "Counter.next")
      continue;
    std::vector<uint32_t> Views = Web.viewsOf(Entry.Eid);
    EXPECT_EQ(Views.size(), 4u); // TH + CM + TO + AO.
    // Navigation: the entry is present in each view at a valid position.
    for (uint32_t ViewId : Views) {
      const View &V = Web.view(ViewId);
      int64_t Pos = ViewWeb::positionOf(V, Entry.Eid);
      ASSERT_GE(Pos, 0);
      EXPECT_EQ(V.Entries[static_cast<size_t>(Pos)], Entry.Eid);
    }
    return;
  }
  FAIL() << "no field-set entry found in Counter.next";
}

TEST(ViewWeb, EntriesAscendWithinEveryView) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  for (const View &V : Web.views())
    for (size_t I = 1; I < V.Entries.size(); ++I)
      EXPECT_LT(V.Entries[I - 1], V.Entries[I]);
}

TEST(ViewWeb, CountsMatchDistinctKeys) {
  Trace T = traceOf(CounterProgram);
  ViewWeb Web(T);
  EXPECT_EQ(Web.numThreadViews(), 1u);
  // Methods: main, Counter.<init>, Counter.next, Counter.peek.
  EXPECT_EQ(Web.numMethodViews(), 4u);
  // Objects: two Counters (both as targets and as active objects).
  EXPECT_EQ(Web.numTargetObjectViews(), 2u);
  EXPECT_EQ(Web.numActiveObjectViews(), 2u);
  EXPECT_EQ(Web.numViews(), Web.numThreadViews() + Web.numMethodViews() +
                                Web.numTargetObjectViews() +
                                Web.numActiveObjectViews());
}

TEST(ViewWeb, MultiThreadedTracesHaveOneViewPerThread) {
  Trace T = traceOf(R"(
    class W {
      Unit go() { var i = 0; while (i < 5) { i = i + 1; } return unit; }
    }
    main {
      spawn new W().go();
      spawn new W().go();
    }
  )");
  ViewWeb Web(T);
  EXPECT_EQ(Web.numThreadViews(), 3u);
  // Thread views partition the trace.
  size_t Total = 0;
  for (const View &V : Web.views())
    if (V.Type == ViewType::Thread)
      Total += V.Entries.size();
  EXPECT_EQ(Total, T.size());
}

//===----------------------------------------------------------------------===//
// Property: the web equals a naive reference partition
//===----------------------------------------------------------------------===//

/// A plain reading of §2.4: per family, a map from key to the ascending
/// entry ids that carry it, with views numbered by first appearance.
struct ReferenceWeb {
  struct Family {
    std::vector<uint32_t> Order; ///< Keys in first-appearance order.
    std::map<uint32_t, std::vector<uint32_t>> Lists;

    void add(uint32_t Key, uint32_t Eid) {
      auto [It, New] = Lists.try_emplace(Key);
      if (New)
        Order.push_back(Key);
      It->second.push_back(Eid);
    }
    /// Dense id of \p Key's view given the family's first id, or -1.
    int64_t idOf(uint32_t Key, size_t Base) const {
      for (size_t I = 0; I != Order.size(); ++I)
        if (Order[I] == Key)
          return static_cast<int64_t>(Base + I);
      return -1;
    }
  };
  Family Families[NumViewFamilies];

  /// A target-object member is an event other than fork/end whose target
  /// is a real object; an active-object member runs with a receiver.
  static bool hasTarget(const Trace &T, uint32_t Eid) {
    EventKind K = T.kind(Eid);
    return K != EventKind::Fork && K != EventKind::End &&
           !T.target(Eid).isNone();
  }

  explicit ReferenceWeb(const Trace &T) {
    for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
      Families[0].add(T.tid(Eid), Eid);
      Families[1].add(T.method(Eid).Id, Eid);
      if (hasTarget(T, Eid))
        Families[2].add(T.target(Eid).Loc, Eid);
      if (!T.self(Eid).isNone())
        Families[3].add(T.self(Eid).Loc, Eid);
    }
  }
};

/// Checks \p Web against the reference partition of its trace: view ids,
/// identities, entry lists, representation endpoints, the four lookups,
/// and viewsOf.
void expectMatchesReference(const ViewWeb &Web) {
  const Trace &T = Web.trace();
  ReferenceWeb Ref(T);
  size_t Base[NumViewFamilies + 1] = {};
  for (size_t F = 0; F != NumViewFamilies; ++F)
    Base[F + 1] = Base[F] + Ref.Families[F].Order.size();
  ASSERT_EQ(Web.numViews(), Base[NumViewFamilies]);
  EXPECT_EQ(Web.numThreadViews(), Ref.Families[0].Order.size());
  EXPECT_EQ(Web.numMethodViews(), Ref.Families[1].Order.size());
  EXPECT_EQ(Web.numTargetObjectViews(), Ref.Families[2].Order.size());
  EXPECT_EQ(Web.numActiveObjectViews(), Ref.Families[3].Order.size());

  const ObjRepr *Cols[NumViewFamilies] = {nullptr, nullptr, T.Targets.data(),
                                          T.Selfs.data()};
  uint32_t AbsentKey = 0;
  for (size_t F = 0; F != NumViewFamilies; ++F) {
    const ReferenceWeb::Family &Fam = Ref.Families[F];
    for (size_t I = 0; I != Fam.Order.size(); ++I) {
      uint32_t Id = static_cast<uint32_t>(Base[F] + I);
      uint32_t Key = Fam.Order[I];
      AbsentKey = std::max(AbsentKey, Key);
      const std::vector<uint32_t> &List = Fam.Lists.at(Key);
      const View &V = Web.view(Id);
      SCOPED_TRACE("view " + std::to_string(Id));
      EXPECT_EQ(V.Id, Id);
      ASSERT_EQ(static_cast<size_t>(V.Type), F);
      ASSERT_EQ(V.Entries.size(), List.size());
      EXPECT_TRUE(std::equal(List.begin(), List.end(), V.Entries.begin()));
      ObjRepr None;
      const ObjRepr &First = Cols[F] ? Cols[F][List.front()] : None;
      const ObjRepr &Last = Cols[F] ? Cols[F][List.back()] : None;
      EXPECT_EQ(0, std::memcmp(&V.FirstRepr, &First, sizeof(ObjRepr)));
      EXPECT_EQ(0, std::memcmp(&V.LastRepr, &Last, sizeof(ObjRepr)));
      switch (V.Type) {
      case ViewType::Thread:
        EXPECT_EQ(V.Tid, Key);
        EXPECT_EQ(Web.threadView(Key), &V);
        break;
      case ViewType::Method:
        EXPECT_EQ(V.MethodName.Id, Key);
        EXPECT_EQ(Web.methodView(Symbol{Key}), &V);
        break;
      case ViewType::TargetObject:
        EXPECT_EQ(V.Loc, Key);
        EXPECT_EQ(Web.targetObjectView(Key), &V);
        break;
      case ViewType::ActiveObject:
        EXPECT_EQ(V.Loc, Key);
        EXPECT_EQ(Web.activeObjectView(Key), &V);
        break;
      }
    }
  }
  // Keys no entry carries have no view, inside the dense range or not.
  for (uint32_t Key : {AbsentKey + 1, 0x7fffffffu, 0xfffffffeu}) {
    if (!Ref.Families[0].Lists.count(Key)) {
      EXPECT_EQ(Web.threadView(Key), nullptr);
    }
    if (!Ref.Families[1].Lists.count(Key)) {
      EXPECT_EQ(Web.methodView(Symbol{Key}), nullptr);
    }
    if (!Ref.Families[2].Lists.count(Key)) {
      EXPECT_EQ(Web.targetObjectView(Key), nullptr);
    }
    if (!Ref.Families[3].Lists.count(Key)) {
      EXPECT_EQ(Web.activeObjectView(Key), nullptr);
    }
  }

  for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
    std::vector<uint32_t> Want;
    Want.push_back(
        static_cast<uint32_t>(Ref.Families[0].idOf(T.tid(Eid), Base[0])));
    Want.push_back(static_cast<uint32_t>(
        Ref.Families[1].idOf(T.method(Eid).Id, Base[1])));
    if (ReferenceWeb::hasTarget(T, Eid))
      Want.push_back(static_cast<uint32_t>(
          Ref.Families[2].idOf(T.target(Eid).Loc, Base[2])));
    if (!T.self(Eid).isNone())
      Want.push_back(static_cast<uint32_t>(
          Ref.Families[3].idOf(T.self(Eid).Loc, Base[3])));
    ASSERT_EQ(Web.viewsOf(Eid), Want) << "entry " << Eid;
  }
}

TEST(ViewWebProperty, MatchesReferenceOnGeneratedAndMutatedTraces) {
  // Reproducible draws over generator shapes; each base program also
  // yields seeded mutants, whose traces take other paths through it.
  Rng Draw(20261019);
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    GeneratorOptions G;
    G.NumClasses = 2 + static_cast<unsigned>(Draw.next() % 4);
    G.OuterIters = 3 + static_cast<unsigned>(Draw.next() % 12);
    G.NumThreads = 1 + static_cast<unsigned>(Draw.next() % 3);
    G.Seed = Seed;
    G.Perturb = static_cast<unsigned>(Draw.next() % 3);
    G.ReorderBlock = Draw.next() % 2 != 0;
    Expected<MutantSet> Set =
        generateMutantSet(generateProgram(G), RunOptions(), 2, Seed);
    ASSERT_TRUE(bool(Set)) << Set.error().render();
    SCOPED_TRACE("seed " + std::to_string(Seed));
    expectMatchesReference(ViewWeb(Set->Base));
    ++Checked;
    for (const MutantTrace &M : Set->Mutants) {
      expectMatchesReference(ViewWeb(M.ExecTrace));
      ++Checked;
    }
  }
  EXPECT_EQ(Checked, 120u);
}

TEST(ViewWebProperty, MatchesReferenceAfterRemappingLoad) {
  // A busy interner shifts every symbol id on load, so the method keys of
  // the loaded trace differ from the written ones.
  GeneratorOptions G;
  G.NumThreads = 2;
  G.OuterIters = 6;
  Trace T = traceOf(generateProgram(G));
  std::string Path = "/tmp/rprism_viewstest_" + std::to_string(::getpid());
  ASSERT_TRUE(writeTrace(T, Path));
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-zero");
  Expected<Trace> Loaded = readTrace(Path, Busy);
  std::remove(Path.c_str());
  ASSERT_TRUE(bool(Loaded)) << Loaded.error().render();
  expectMatchesReference(ViewWeb(*Loaded));
}

TEST(ViewWebProperty, EmptyAndSingleEntryTraces) {
  Trace Empty;
  Empty.Strings = std::make_shared<StringInterner>();
  ViewWeb EmptyWeb(Empty);
  EXPECT_EQ(EmptyWeb.numViews(), 0u);
  EXPECT_EQ(EmptyWeb.threadView(0), nullptr);
  expectMatchesReference(EmptyWeb);

  Trace Full = traceOf("class A { } main { var a = new A(); }");
  ASSERT_GT(Full.size(), 0u);
  Trace One;
  One.Strings = Full.Strings;
  One.Threads = Full.Threads;
  One.append(Full.entry(0));
  ViewWeb OneWeb(One);
  EXPECT_GE(OneWeb.numViews(), 2u);
  expectMatchesReference(OneWeb);
}

TEST(ViewWebProperty, HugeKeysTakeNoTableSizedByValue) {
  // Every object location of a small trace rewritten past the dense range,
  // including NoLoc itself (still a real object: it has a class).
  for (uint32_t Loc : {0x7fffffffu, 0xffffffffu}) {
    Trace T = traceOf(CounterProgram);
    ObjRepr *Targets = T.Targets.mutData();
    ObjRepr *Selfs = T.Selfs.mutData();
    for (uint32_t Eid = 0; Eid != T.size(); ++Eid) {
      if (!Targets[Eid].isNone())
        Targets[Eid].Loc = Loc - Targets[Eid].Loc;
      if (!Selfs[Eid].isNone())
        Selfs[Eid].Loc = Loc - Selfs[Eid].Loc;
    }
    ViewWeb Web(T);
    SCOPED_TRACE("loc " + std::to_string(Loc));
    expectMatchesReference(Web);
    EXPECT_EQ(Web.numTargetObjectViews(), 2u);
  }
}

//===----------------------------------------------------------------------===//
// Correlation (X_nu)
//===----------------------------------------------------------------------===//

TEST(Correlate, IdenticalRunsCorrelateEverything) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(CounterProgram, Strings);
  Trace R = traceOf(CounterProgram, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  for (const View &V : LW.views())
    EXPECT_GE(X.rightOf(V.Id), 0)
        << viewTypeName(V.Type) << " view uncorrelated";
  ASSERT_EQ(X.threadPairs().size(), 1u);
}

TEST(Correlate, MethodViewsCorrelateByQualifiedName) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(CounterProgram, Strings);
  // Same shape, but the method is renamed: method views must NOT correlate.
  Trace R = traceOf(R"(
    class Counter {
      Int count;
      Counter(Int start) { this.count = start; }
      Int advance() { this.count = this.count + 1; return this.count; }
      Int peek() { return this.count; }
    }
    main {
      var a = new Counter(0);
      var b = new Counter(100);
      a.advance();
      b.advance();
      a.advance();
      print(a.peek() + b.peek());
    }
  )",
                    Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);

  const View *NextView = LW.methodView(Strings->intern("Counter.next"));
  ASSERT_TRUE(NextView != nullptr);
  EXPECT_LT(X.rightOf(NextView->Id), 0);

  const View *PeekView = LW.methodView(Strings->intern("Counter.peek"));
  ASSERT_TRUE(PeekView != nullptr);
  EXPECT_GE(X.rightOf(PeekView->Id), 0);
}

TEST(Correlate, ObjectsCorrelateByCreationSeqWhenValuesDiffer) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(CounterProgram, Strings);
  // Different start value for b: value reprs differ, creation seq matches.
  Trace R = traceOf(R"(
    class Counter {
      Int count;
      Counter(Int start) { this.count = start; }
      Int next() { this.count = this.count + 1; return this.count; }
      Int peek() { return this.count; }
    }
    main {
      var a = new Counter(0);
      var b = new Counter(999);
      a.next();
      b.next();
      a.next();
      print(a.peek() + b.peek());
    }
  )",
                    Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  unsigned CorrelatedObjects = 0;
  for (const View &V : LW.views())
    if (V.Type == ViewType::TargetObject && X.rightOf(V.Id) >= 0)
      ++CorrelatedObjects;
  EXPECT_EQ(CorrelatedObjects, 2u);
}

TEST(Correlate, ThreadsCorrelateByAncestry) {
  const char *Source = R"(
    class W {
      Int id;
      W(Int id) { this.id = id; }
      Unit go() { var x = this.id * 2; return unit; }
      Unit other() { var y = this.id + 1; return unit; }
    }
    main {
      spawn new W(1).go();
      spawn new W(2).other();
    }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Source, Strings);
  Trace R = traceOf(Source, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  ASSERT_EQ(X.threadPairs().size(), 3u);
  // Each left thread must pair with the same-entry-method right thread.
  for (auto [LId, RId] : X.threadPairs()) {
    const View &LV = LW.view(LId);
    const View &RV = RW.view(RId);
    EXPECT_EQ(L.Threads[LV.Tid].EntryMethod, R.Threads[RV.Tid].EntryMethod);
  }
}

TEST(Correlate, AncestrySimilarityPrefersExactHash) {
  ThreadInfo A;
  A.AncestryHash = 42;
  ThreadInfo B;
  B.AncestryHash = 42;
  Trace Dummy;
  EXPECT_EQ(threadAncestrySimilarity(Dummy, A, Dummy, B), 1.0);
  B.AncestryHash = 43;
  EXPECT_LT(threadAncestrySimilarity(Dummy, A, Dummy, B), 1.0);
}

//===----------------------------------------------------------------------===//
// Property: the correlation equals a naive reference of the X_nu rules
//===----------------------------------------------------------------------===//

/// A plain reading of §3.1 with ordered maps: X_TH pairs threads greedily by
/// ancestry similarity, X_CM by qualified name, and X_TO / X_AO index the
/// right views, in id order, by (class, value hash) of the last and then
/// the first representation and by (class, creation seq). The first insert
/// of a key wins, and each view links at most once.
struct ReferenceCorrelation {
  std::map<uint32_t, uint32_t> LeftToRight;
  std::map<uint32_t, uint32_t> RightToLeft;
  std::vector<std::pair<uint32_t, uint32_t>> ThreadPairs;

  bool link(uint32_t L, uint32_t R) {
    if (LeftToRight.count(L) || RightToLeft.count(R))
      return false;
    LeftToRight[L] = R;
    RightToLeft[R] = L;
    return true;
  }

  ReferenceCorrelation(const ViewWeb &LW, const ViewWeb &RW) {
    const Trace &LT = LW.trace();
    const Trace &RT = RW.trace();
    std::vector<std::tuple<double, uint32_t, uint32_t>> Cands;
    for (const ThreadInfo &L : LT.Threads)
      for (const ThreadInfo &R : RT.Threads)
        if (LW.threadView(L.Tid) && RW.threadView(R.Tid))
          if (double Score = threadAncestrySimilarity(LT, L, RT, R); Score > 0)
            Cands.emplace_back(-Score, L.Tid, R.Tid);
    std::sort(Cands.begin(), Cands.end());
    for (auto [Score, LTid, RTid] : Cands) {
      uint32_t L = LW.threadView(LTid)->Id;
      uint32_t R = RW.threadView(RTid)->Id;
      if (link(L, R))
        ThreadPairs.emplace_back(L, R);
    }
    std::sort(ThreadPairs.begin(), ThreadPairs.end(),
              [&LW](const auto &A, const auto &B) {
                return LW.view(A.first).Tid < LW.view(B.first).Tid;
              });

    for (const View &LV : LW.views())
      for (const View &RV : RW.views())
        if (LV.Type == ViewType::Method && RV.Type == ViewType::Method &&
            LV.MethodName == RV.MethodName)
          link(LV.Id, RV.Id);

    for (ViewType Type : {ViewType::TargetObject, ViewType::ActiveObject}) {
      std::map<std::pair<uint32_t, uint64_t>, uint32_t> ByValue;
      std::map<std::pair<uint32_t, uint32_t>, uint32_t> BySeq;
      for (const View &RV : RW.views()) {
        if (RV.Type != Type)
          continue;
        for (const ObjRepr *Repr : {&RV.LastRepr, &RV.FirstRepr})
          if (Repr->HasRepr)
            ByValue.try_emplace({Repr->ClassName.Id, Repr->ValueHash}, RV.Id);
        BySeq.try_emplace(
            {RV.FirstRepr.ClassName.Id, RV.FirstRepr.CreationSeq}, RV.Id);
      }
      for (const View &LV : LW.views()) {
        if (LV.Type != Type)
          continue;
        for (const ObjRepr *Repr : {&LV.LastRepr, &LV.FirstRepr}) {
          auto It = ByValue.find({Repr->ClassName.Id, Repr->ValueHash});
          if (Repr->HasRepr && It != ByValue.end() && link(LV.Id, It->second))
            break;
        }
      }
      for (const View &LV : LW.views()) {
        if (LV.Type != Type || LeftToRight.count(LV.Id))
          continue;
        auto It =
            BySeq.find({LV.FirstRepr.ClassName.Id, LV.FirstRepr.CreationSeq});
        if (It != BySeq.end())
          link(LV.Id, It->second);
      }
    }
  }
};

/// Checks every view's partner, both ways, and the thread pairs against
/// the reference; returns the correlation's left-to-right links.
std::map<uint32_t, uint32_t> expectCorrelationMatchesReference(
    const ViewWeb &LW, const ViewWeb &RW) {
  ViewCorrelation X(LW, RW);
  ReferenceCorrelation Ref(LW, RW);
  std::map<uint32_t, uint32_t> Links;
  for (uint32_t Id = 0; Id != LW.numViews(); ++Id) {
    auto It = Ref.LeftToRight.find(Id);
    EXPECT_EQ(X.rightOf(Id), It == Ref.LeftToRight.end()
                                 ? -1
                                 : static_cast<int32_t>(It->second))
        << viewTypeName(LW.view(Id).Type) << " left view " << Id;
    if (X.rightOf(Id) >= 0)
      Links[Id] = static_cast<uint32_t>(X.rightOf(Id));
  }
  for (uint32_t Id = 0; Id != RW.numViews(); ++Id) {
    auto It = Ref.RightToLeft.find(Id);
    EXPECT_EQ(X.leftOf(Id), It == Ref.RightToLeft.end()
                                ? -1
                                : static_cast<int32_t>(It->second))
        << viewTypeName(RW.view(Id).Type) << " right view " << Id;
  }
  EXPECT_EQ(X.threadPairs(), Ref.ThreadPairs);
  return Links;
}

TEST(CorrelateProperty, MatchesReferenceOnGeneratedAndMutatedTraces) {
  Rng Draw(20261020);
  unsigned Checked = 0;
  for (uint64_t Seed = 1; Seed <= 40; ++Seed) {
    GeneratorOptions G;
    G.NumClasses = 2 + static_cast<unsigned>(Draw.next() % 4);
    G.OuterIters = 3 + static_cast<unsigned>(Draw.next() % 12);
    G.NumThreads = 1 + static_cast<unsigned>(Draw.next() % 3);
    G.Seed = Seed;
    G.Perturb = static_cast<unsigned>(Draw.next() % 3);
    G.ReorderBlock = Draw.next() % 2 != 0;
    Expected<MutantSet> Set =
        generateMutantSet(generateProgram(G), RunOptions(), 2, Seed);
    ASSERT_TRUE(bool(Set)) << Set.error().render();
    SCOPED_TRACE("seed " + std::to_string(Seed));
    ViewWeb Base(Set->Base);
    for (const MutantTrace &M : Set->Mutants) {
      ViewWeb Mutant(M.ExecTrace);
      expectCorrelationMatchesReference(Base, Mutant);
      expectCorrelationMatchesReference(Mutant, Base);
      Checked += 2;
    }
  }
  EXPECT_EQ(Checked, 160u);
}

TEST(CorrelateProperty, MatchesReferenceAfterRemappingLoad) {
  // Both sides loaded into a busy interner: every class and method symbol
  // id moves, and the keys must join exactly as before.
  GeneratorOptions G;
  G.NumThreads = 2;
  G.OuterIters = 6;
  Expected<MutantSet> Set =
      generateMutantSet(generateProgram(G), RunOptions(), 1, 5);
  ASSERT_TRUE(bool(Set)) << Set.error().render();
  std::string Base = "/tmp/rprism_correlate_base_" + std::to_string(::getpid());
  std::string Mut = "/tmp/rprism_correlate_mut_" + std::to_string(::getpid());
  ASSERT_TRUE(writeTrace(Set->Base, Base));
  ASSERT_TRUE(writeTrace(Set->Mutants[0].ExecTrace, Mut));
  auto Busy = std::make_shared<StringInterner>();
  Busy->intern("occupying-symbol-id-zero");
  Expected<Trace> L = readTrace(Base, Busy);
  Expected<Trace> R = readTrace(Mut, Busy);
  std::remove(Base.c_str());
  std::remove(Mut.c_str());
  ASSERT_TRUE(bool(L)) << L.error().render();
  ASSERT_TRUE(bool(R)) << R.error().render();
  ViewWeb LW(*L);
  ViewWeb RW(*R);
  EXPECT_FALSE(expectCorrelationMatchesReference(LW, RW).empty());
}

/// One object per spec, each read twice: its target-object view's first
/// representation carries First, its last carries Last.
struct ObjSpec {
  uint32_t Class;
  uint64_t First;
  uint64_t Last;
  uint32_t Seq;
};

Trace objectTrace(const std::shared_ptr<StringInterner> &Strings,
                  const std::vector<ObjSpec> &Objects) {
  Trace T;
  T.Strings = Strings;
  ThreadInfo Main;
  Main.EntryMethod = Strings->intern("main");
  T.Threads.push_back(Main);
  for (uint32_t Loc = 0; Loc != Objects.size(); ++Loc)
    for (uint64_t Hash : {Objects[Loc].First, Objects[Loc].Last}) {
      TraceEntry E;
      E.Eid = static_cast<uint32_t>(T.size());
      E.Method = Main.EntryMethod;
      E.Ev.Kind = EventKind::FieldGet;
      E.Ev.Name = Strings->intern("f");
      E.Ev.Target.ValueHash = Hash;
      E.Ev.Target.Loc = Loc;
      E.Ev.Target.ClassName = Symbol{Objects[Loc].Class};
      E.Ev.Target.CreationSeq = Objects[Loc].Seq;
      E.Ev.Target.HasRepr = 1;
      T.append(E);
    }
  return T;
}

/// Correlates two object traces and returns, per left object, the right
/// object its target-object view links to (-1 for none).
std::vector<int64_t> objectPartners(const std::vector<ObjSpec> &Left,
                                    const std::vector<ObjSpec> &Right) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = objectTrace(Strings, Left);
  Trace R = objectTrace(Strings, Right);
  ViewWeb LW(L);
  ViewWeb RW(R);
  std::map<uint32_t, uint32_t> Links = expectCorrelationMatchesReference(LW, RW);
  std::vector<int64_t> Partners;
  for (uint32_t Loc = 0; Loc != Left.size(); ++Loc) {
    auto It = Links.find(LW.targetObjectView(Loc)->Id);
    Partners.push_back(It == Links.end()
                           ? -1
                           : static_cast<int64_t>(RW.view(It->second).Loc));
  }
  return Partners;
}

TEST(CorrelateProperty, SharedFinalStateGoesToTheLowerRightView) {
  // Two right views share one (class, last hash): the lower id owns it.
  // The second left view finds it taken and has no other match.
  EXPECT_EQ(objectPartners({{7, 1, 50, 10}, {7, 2, 50, 11}},
                           {{7, 3, 50, 20}, {7, 4, 50, 21}}),
            (std::vector<int64_t>{0, -1}));
}

TEST(CorrelateProperty, AKeyBelongsToTheEarlierRightViewWhicheverEndHoldsIt) {
  // Right 0 holds 50 as its first representation, right 1 as its last:
  // the keys of right 0 enter first, so 50 is right 0's. Within one view
  // the final state enters before the first.
  EXPECT_EQ(objectPartners({{7, 9, 50, 10}}, {{7, 50, 60, 20}, {7, 70, 50, 21}}),
            (std::vector<int64_t>{0}));
  EXPECT_EQ(objectPartners({{7, 9, 50, 10}}, {{7, 40, 60, 20}, {7, 50, 70, 21}}),
            (std::vector<int64_t>{1}));
}

TEST(CorrelateProperty, EqualHashInAnotherClassNeverLinks) {
  EXPECT_EQ(objectPartners({{7, 50, 50, 10}}, {{8, 50, 50, 20}}),
            (std::vector<int64_t>{-1}));
  // The same hash split across class and value words does not alias
  // either.
  EXPECT_EQ(objectPartners({{7, 0x800000000ull, 8, 10}},
                           {{8, 0x700000000ull, 7, 20}}),
            (std::vector<int64_t>{-1}));
}

TEST(CorrelateProperty, ExtremeKeysJoinLikeAnyOther) {
  // Class ids, hashes and creation seqs at their largest values: the
  // tables are sized by view counts, never by key values.
  const uint32_t MaxClass = 0xffffffffu;
  const uint64_t MaxHash = ~0ull;
  EXPECT_EQ(objectPartners({{MaxClass, MaxHash, MaxHash, MaxClass},
                            {MaxClass, 0, MaxHash - 1, 3},
                            {MaxClass - 1, 5, 6, MaxClass}},
                           {{MaxClass - 1, 1, 2, MaxClass},
                            {MaxClass, MaxHash - 1, 0, 4},
                            {MaxClass, MaxHash, MaxHash, MaxClass}}),
            (std::vector<int64_t>{2, 1, 0}));
}

} // namespace
