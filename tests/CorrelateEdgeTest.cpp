//===- tests/CorrelateEdgeTest.cpp - Correlation heuristic corners --------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// §3.1 calls the correlation functions heuristics; these tests pin down
/// their behavior at the corners: swapped creation orders, value-identical
/// twins, threads with reshuffled spawn structure, and classes that exist
/// in only one version.
///
//===----------------------------------------------------------------------===//

#include "correlate/Correlate.h"
#include "diff/ViewsDiff.h"
#include "runtime/Compiler.h"
#include "runtime/Vm.h"

#include <gtest/gtest.h>

using namespace rprism;

namespace {

Trace traceOf(const std::string &Source,
              std::shared_ptr<StringInterner> Strings,
              RunOptions Options = RunOptions()) {
  auto Prog = compileSource(Source, std::move(Strings));
  EXPECT_TRUE(bool(Prog)) << (Prog ? "" : Prog.error().render());
  if (!Prog)
    return Trace();
  RunResult Result = runProgram(*Prog, Options);
  EXPECT_TRUE(Result.Completed) << Result.Error;
  return std::move(Result.ExecTrace);
}

/// Counts correlated target-object views whose partner has the expected
/// rendering.
int countObjectPairs(const ViewWeb &LW, const ViewCorrelation &X) {
  int Pairs = 0;
  for (const View &V : LW.views())
    if (V.Type == ViewType::TargetObject && X.rightOf(V.Id) >= 0)
      ++Pairs;
  return Pairs;
}

TEST(CorrelateEdge, SwappedCreationOrderResolvedByValueReprs) {
  // Two instances created in opposite orders; their *values* identify
  // them, so X_TO must pair alpha with alpha, not first-with-first.
  const char *A = R"(
    class Tag { Str name; Tag(Str name) { this.name = name; }
      Str get() { return this.name; } }
    main {
      var x = new Tag("alpha");
      var y = new Tag("beta");
      print(x.get());
      print(y.get());
    }
  )";
  const char *B = R"(
    class Tag { Str name; Tag(Str name) { this.name = name; }
      Str get() { return this.name; } }
    main {
      var y = new Tag("beta");
      var x = new Tag("alpha");
      print(x.get());
      print(y.get());
    }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(A, Strings);
  Trace R = traceOf(B, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);

  for (const View &LV : LW.views()) {
    if (LV.Type != ViewType::TargetObject)
      continue;
    if (L.Strings->text(LW.firstRepr(LV).ClassName) != "Tag")
      continue;
    int32_t Partner = X.rightOf(LV.Id);
    ASSERT_GE(Partner, 0);
    const View &RV = RW.view(static_cast<uint32_t>(Partner));
    // Value-correlated: the reprs agree even though creation seqs differ.
    EXPECT_EQ(LW.firstRepr(LV).ValueHash, RW.firstRepr(RV).ValueHash);
    EXPECT_NE(LW.firstRepr(LV).CreationSeq, RW.firstRepr(RV).CreationSeq);
  }
}

TEST(CorrelateEdge, ValueIdenticalTwinsFallBackToCreationSeq) {
  // Two indistinguishable instances: value reprs collide, so creation
  // sequence numbers decide — each left twin gets exactly one partner.
  const char *Source = R"(
    class Cell { Int v; Cell() { this.v = 0; }
      Unit touch() { this.v = 0; return unit; } }
    main {
      var a = new Cell();
      var b = new Cell();
      a.touch();
      b.touch();
    }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Source, Strings);
  Trace R = traceOf(Source, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);

  std::set<int32_t> Partners;
  int CellViews = 0;
  for (const View &LV : LW.views()) {
    if (LV.Type != ViewType::TargetObject)
      continue;
    if (L.Strings->text(LW.firstRepr(LV).ClassName) != "Cell")
      continue;
    ++CellViews;
    int32_t Partner = X.rightOf(LV.Id);
    ASSERT_GE(Partner, 0);
    EXPECT_TRUE(Partners.insert(Partner).second)
        << "two left views share a right partner";
  }
  EXPECT_EQ(CellViews, 2);
}

TEST(CorrelateEdge, ClassOnlyInOneVersionStaysUncorrelated) {
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf("class Old { Int v; Old() { this.v = 1; } } "
                    "main { var o = new Old(); print(o.v); }",
                    Strings);
  Trace R = traceOf("class New { Int v; New() { this.v = 1; } } "
                    "main { var n = new New(); print(n.v); }",
                    Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  EXPECT_EQ(countObjectPairs(LW, X), 0);
  // But main's method views still correlate.
  const View *Main = LW.methodView(Strings->intern("main"));
  ASSERT_TRUE(Main != nullptr);
  EXPECT_GE(X.rightOf(Main->Id), 0);
}

TEST(CorrelateEdge, ThreadsPairDespiteExtraThread) {
  // The right trace spawns one extra thread; the shared ones must still
  // pair by ancestry, and the extra one must stay unpaired.
  const char *A = R"(
    class W { Int id; W(Int id) { this.id = id; }
      Unit go() { var x = this.id; return unit; } }
    main {
      spawn new W(1).go();
    }
  )";
  const char *B = R"(
    class W { Int id; W(Int id) { this.id = id; }
      Unit go() { var x = this.id; return unit; }
      Unit extra() { var y = this.id * 2; return unit; } }
    main {
      spawn new W(1).go();
      spawn new W(2).extra();
    }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(A, Strings);
  Trace R = traceOf(B, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);

  // Two pairs: main<->main and go<->go.
  ASSERT_EQ(X.threadPairs().size(), 2u);
  for (auto [LId, RId] : X.threadPairs()) {
    EXPECT_EQ(L.Threads[LW.view(LId).Tid].EntryMethod,
              R.Threads[RW.view(RId).Tid].EntryMethod);
  }
  // The extra thread's entries become wholesale differences in a diff.
  DiffResult Result = viewsDiff(LW, RW, X);
  bool ExtraFlagged = false;
  for (uint32_t Eid = 0; Eid != R.size(); ++Eid)
    if (!Result.RightSimilar.test(Eid) && R.tid(Eid) == 2)
      ExtraFlagged = true;
  EXPECT_TRUE(ExtraFlagged);
}

TEST(CorrelateEdge, CorrelationIsInjective) {
  // No right view may be the partner of two left views, across all types.
  const char *Source = R"(
    class P { Int v; P(Int v) { this.v = v; }
      Int get() { return this.v; } }
    main {
      var a = new P(1);
      var b = new P(2);
      var c = new P(3);
      print(a.get() + b.get() + c.get());
    }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Source, Strings);
  Trace R = traceOf(Source, Strings);
  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);

  std::set<int32_t> Seen;
  for (const View &LV : LW.views()) {
    int32_t Partner = X.rightOf(LV.Id);
    if (Partner < 0)
      continue;
    EXPECT_TRUE(Seen.insert(Partner).second)
        << "right view " << Partner << " paired twice";
    // And the reverse mapping agrees.
    EXPECT_EQ(X.leftOf(static_cast<uint32_t>(Partner)),
              static_cast<int32_t>(LV.Id));
  }
}

TEST(CorrelateEdge, ValueKeyNeverLinksAcrossClasses) {
  // The right side creates its B before its A, so B's object view is
  // indexed first. Its final-state hash is patched so that, were the key
  // (class << 32) ^ hash, B's key would equal A's: A's final-state lookup
  // would then find B first and link objects of two different classes.
  const char *Classes = R"(
    class A { Int v; A(Int v) { this.v = v; } Int get() { return this.v; } }
    class B { Int v; B(Int v) { this.v = v; } Int get() { return this.v; } }
  )";
  std::string Left = std::string(Classes) + R"(
    main { var a = new A(1); var b = new B(2); print(a.get() + b.get()); }
  )";
  std::string Right = std::string(Classes) + R"(
    main { var b = new B(2); var a = new A(1); print(a.get() + b.get()); }
  )";
  auto Strings = std::make_shared<StringInterner>();
  Trace L = traceOf(Left, Strings);
  Trace R = traceOf(Right, Strings);

  const View *LeftA = nullptr;
  ViewWeb Before(L);
  for (const View &V : Before.views())
    if (V.Type == ViewType::TargetObject &&
        Strings->text(Before.lastRepr(V).ClassName) == "A")
      LeftA = &V;
  ASSERT_NE(LeftA, nullptr);
  const ObjRepr &LastA = Before.lastRepr(*LeftA);
  ASSERT_TRUE(LastA.HasRepr);
  uint32_t AId = LastA.ClassName.Id;
  uint64_t AHash = LastA.ValueHash;

  // Patch the last entry of the right side's B target-object view: point
  // it at a new object row holding the colliding hash.
  int64_t LastB = -1;
  for (uint32_t Eid = 0; Eid != R.size(); ++Eid)
    if (eventHasTargetObject(R.kind(Eid), R.target(Eid)) &&
        Strings->text(R.target(Eid).ClassName) == "B")
      LastB = Eid;
  ASSERT_GE(LastB, 0);
  ObjRepr Patched = R.target(LastB);
  uint32_t BId = Patched.ClassName.Id;
  ASSERT_NE(AId, BId);
  Patched.ValueHash = AHash ^ (static_cast<uint64_t>(AId ^ BId) << 32);
  R.TargetIds.mut(LastB) = static_cast<uint32_t>(R.Objects.size());
  R.Objects.push_back(Patched);

  ViewWeb LW(L);
  ViewWeb RW(R);
  ViewCorrelation X(LW, RW);
  ASSERT_GE(X.rightOf(LeftA->Id), 0) << "A's object view found no partner";
  for (const View &LV : LW.views()) {
    if (LV.Type != ViewType::TargetObject || X.rightOf(LV.Id) < 0)
      continue;
    const View &RV = RW.view(static_cast<uint32_t>(X.rightOf(LV.Id)));
    EXPECT_EQ(Strings->text(LW.firstRepr(LV).ClassName),
              Strings->text(RW.firstRepr(RV).ClassName))
        << "target-object view linked across classes";
  }
}

} // namespace
