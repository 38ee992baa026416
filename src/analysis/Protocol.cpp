//===- analysis/Protocol.cpp ----------------------------------------------===//

#include "analysis/Protocol.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>

using namespace rprism;

namespace {

/// Extracts the per-instance method-call sequence from a target-object
/// view: the Call events targeting the object, in trace order. `new`
/// (Init) marks the start; the optional ctor call is filtered unless
/// requested.
std::vector<Symbol> callSequence(const Trace &T, const View &V,
                                 bool IncludeCtor) {
  std::vector<Symbol> Calls;
  for (uint32_t Eid : V.Entries) {
    if (T.kind(Eid) != EventKind::Call)
      continue;
    Symbol Callee = T.Names[Eid];
    if (!IncludeCtor) {
      const std::string &Name = T.Strings->text(Callee);
      if (Name.size() >= 6 &&
          Name.compare(Name.size() - 6, 6, "<init>") == 0)
        continue;
    }
    Calls.push_back(Callee);
  }
  return Calls;
}

/// Per-class accumulation state during mining.
struct ClassAccum {
  ProtocolAutomaton Auto;
};

} // namespace

std::string ProtocolAutomaton::render(const StringInterner &Strings) const {
  std::ostringstream OS;
  OS << "protocol " << Strings.text(ClassName) << " (" << NumObjects
     << " instance" << (NumObjects == 1 ? "" : "s") << "):\n";
  for (const auto &[Edge, Count] : Transitions) {
    auto [From, To] = Edge;
    OS << "  "
       << (From == StartState ? std::string("<new>")
                              : Strings.text(Symbol{From}))
       << " -> " << Strings.text(Symbol{To}) << "  x" << Count << '\n';
  }
  if (!FinalMethods.empty()) {
    OS << "  final:";
    for (uint32_t Sym : FinalMethods)
      OS << ' ' << Strings.text(Symbol{Sym});
    OS << '\n';
  }
  return OS.str();
}

std::vector<ProtocolAutomaton>
rprism::inferProtocols(const ViewWeb &Web, const ProtocolOptions &Options) {
  const Trace &T = Web.trace();
  std::unordered_map<uint32_t, ClassAccum> ByClass;

  for (const View &V : Web.views()) {
    if (V.Type != ViewType::TargetObject)
      continue;
    Symbol Class = Web.firstRepr(V).ClassName;
    ClassAccum &Accum = ByClass[Class.Id];
    Accum.Auto.ClassName = Class;
    ++Accum.Auto.NumObjects;

    std::vector<Symbol> Calls = callSequence(T, V, Options.IncludeCtor);
    uint32_t Prev = ProtocolAutomaton::StartState;
    for (Symbol Call : Calls) {
      ++Accum.Auto.Transitions[{Prev, Call.Id}];
      Prev = Call.Id;
    }
    if (Prev != ProtocolAutomaton::StartState)
      Accum.Auto.FinalMethods.insert(Prev);
  }

  std::vector<ProtocolAutomaton> Result;
  for (auto &[ClassId, Accum] : ByClass) {
    if (Accum.Auto.NumObjects < Options.MinObjects)
      continue;
    Result.push_back(std::move(Accum.Auto));
  }
  // Deterministic order: by class symbol id.
  std::sort(Result.begin(), Result.end(),
            [](const ProtocolAutomaton &A, const ProtocolAutomaton &B) {
              return A.ClassName < B.ClassName;
            });
  return Result;
}

std::vector<ProtocolViolation>
rprism::checkProtocols(const std::vector<ProtocolAutomaton> &Reference,
                       const ViewWeb &Subject,
                       const ProtocolOptions &Options) {
  const Trace &T = Subject.trace();
  std::unordered_map<uint32_t, const ProtocolAutomaton *> ByClass;
  for (const ProtocolAutomaton &Auto : Reference)
    ByClass.emplace(Auto.ClassName.Id, &Auto);

  // Deduplicate violations per (class, from, to); keep the first site.
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, ProtocolViolation>
      Found;

  for (const View &V : Subject.views()) {
    if (V.Type != ViewType::TargetObject)
      continue;
    auto It = ByClass.find(Subject.firstRepr(V).ClassName.Id);
    if (It == ByClass.end())
      continue; // Unknown class: evolution, not violation.
    const ProtocolAutomaton &Auto = *It->second;

    uint32_t Prev = ProtocolAutomaton::StartState;
    for (uint32_t Eid : V.Entries) {
      if (T.kind(Eid) != EventKind::Call)
        continue;
      Symbol Callee = T.Names[Eid];
      if (!Options.IncludeCtor) {
        const std::string &Name = T.Strings->text(Callee);
        if (Name.size() >= 6 &&
            Name.compare(Name.size() - 6, 6, "<init>") == 0)
          continue;
      }
      if (!Auto.allows(Symbol{Prev}, Callee)) {
        auto Key = std::make_tuple(Auto.ClassName.Id, Prev, Callee.Id);
        auto [Slot, Inserted] = Found.try_emplace(Key);
        if (Inserted) {
          Slot->second.ClassName = Auto.ClassName;
          Slot->second.FromMethod = Symbol{Prev};
          Slot->second.ToMethod = Callee;
          Slot->second.Eid = Eid;
        }
        ++Slot->second.Count;
      }
      Prev = Callee.Id;
    }
  }

  std::vector<ProtocolViolation> Result;
  Result.reserve(Found.size());
  for (auto &[Key, Violation] : Found)
    Result.push_back(Violation);
  return Result;
}

std::string
rprism::renderViolations(const std::vector<ProtocolViolation> &Violations,
                         const Trace &Subject) {
  std::ostringstream OS;
  if (Violations.empty()) {
    OS << "no protocol violations\n";
    return OS.str();
  }
  OS << Violations.size() << " protocol violation(s):\n";
  for (const ProtocolViolation &V : Violations) {
    OS << "  " << Subject.Strings->text(V.ClassName) << ": "
       << (V.FromMethod.empty() ? std::string("<new>")
                                : Subject.Strings->text(V.FromMethod))
       << " -> " << Subject.Strings->text(V.ToMethod) << " (x" << V.Count
       << "), first at [" << V.Eid << "] "
       << Subject.renderEntry(V.Eid) << '\n';
  }
  return OS.str();
}
