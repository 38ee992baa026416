//===- examples/view_explorer.cpp - Navigating the web of views -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Demonstrates the views trace abstraction of §2.4 on a multithreaded
/// producer/consumer program: builds the web of views, prints the Fig. 2
/// style boxes (thread view, method view, target-object view), and
/// navigates an individual entry through every view that links it.
///
//===----------------------------------------------------------------------===//

#include "runtime/Compiler.h"
#include "runtime/Vm.h"
#include "views/Views.h"

#include <cstdio>
#include <iostream>

using namespace rprism;

static const char *Producer = R"(
  class Queue {
    Int depth;
    Int pushed;
    Int popped;
    Queue() { this.depth = 0; this.pushed = 0; this.popped = 0; }
    Unit push(Int v) {
      this.depth = this.depth + 1;
      this.pushed = this.pushed + v;
      return unit;
    }
    Int pop() {
      if (this.depth == 0) { return -1; }
      this.depth = this.depth - 1;
      this.popped = this.popped + 1;
      return this.popped;
    }
  }
  class Producer {
    Queue q;
    Producer(Queue q) { this.q = q; }
    Unit produce() {
      var i = 0;
      while (i < 4) { this.q.push(i * 10); i = i + 1; }
      return unit;
    }
  }
  class Consumer {
    Queue q;
    Int seen;
    Consumer(Queue q) { this.q = q; this.seen = 0; }
    Unit consume() {
      var i = 0;
      while (i < 4) {
        var v = this.q.pop();
        if (v >= 0) { this.seen = this.seen + 1; }
        i = i + 1;
      }
      return unit;
    }
  }
  main {
    var q = new Queue();
    var p = new Producer(q);
    var c = new Consumer(q);
    spawn p.produce();
    spawn c.consume();
    var warm = q.pop();
    print(q.depth);
  }
)";

int main() {
  auto Prog = compileSource(Producer);
  if (!Prog) {
    std::fprintf(stderr, "compile error: %s\n",
                 Prog.error().render().c_str());
    return 1;
  }
  RunResult Run = runProgram(*Prog);
  const Trace &T = Run.ExecTrace;
  std::printf("trace: %zu entries across %zu threads\n\n", T.size(),
              T.Threads.size());

  // The web of views (built in one pass over the trace).
  ViewWeb Web(T);
  std::printf("views: %zu total — %zu thread, %zu method, %zu "
              "target-object, %zu active-object\n\n",
              Web.numViews(), Web.numThreadViews(), Web.numMethodViews(),
              Web.numTargetObjectViews(), Web.numActiveObjectViews());

  // Fig. 2's boxes: one thread view, one method view, one object view.
  if (const View *TV = Web.threadView(1))
    std::cout << Web.render(*TV, 12) << '\n';
  if (const View *MV = Web.methodView(T.Strings->intern("Queue.push")))
    std::cout << Web.render(*MV, 12) << '\n';

  // The first Queue instance's target-object view: every event on q,
  // regardless of which thread performed it.
  for (const View &V : Web.views()) {
    if (V.Type != ViewType::TargetObject)
      continue;
    if (T.Strings->text(Web.firstRepr(V).ClassName) != "Queue")
      continue;
    std::cout << Web.render(V, 16) << '\n';

    // Navigation: take the view's third entry and list every view that
    // links it — the "web" the paper describes.
    if (V.Entries.size() > 2) {
      uint32_t Eid = V.Entries[2];
      std::printf("entry [%u] %s\nis linked into:\n", Eid,
                  T.renderEntry(Eid).c_str());
      for (uint32_t ViewId : Web.viewsOf(Eid)) {
        const View &Linked = Web.view(ViewId);
        std::printf("  - %s view (position %lld of %zu)\n",
                    viewTypeName(Linked.Type),
                    static_cast<long long>(
                        ViewWeb::positionOf(Linked, Eid)),
                    Linked.size());
      }
    }
    break;
  }
  return 0;
}
