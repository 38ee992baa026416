//===- cache/DiffCache.h - Uncached forwarding shim for perfbench ---------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Exists only so the frozen perfbench harness (perfbench/tool.cpp) keeps
/// compiling: stateless, each member forwards to the uncached call.
//===----------------------------------------------------------------------===//

#ifndef RPRISM_CACHE_DIFFCACHE_H
#define RPRISM_CACHE_DIFFCACHE_H

#include "diff/NWayDiff.h"
#include "trace/Serialize.h"

namespace rprism {

struct DiffCache {
  static DiffCache &global() { static DiffCache G; return G; }
  std::shared_ptr<const Trace> load(const std::string &Path,
                                    std::shared_ptr<StringInterner> Strings,
                                    Err *Error = nullptr) {
    Expected<Trace> T = readTrace(Path, std::move(Strings));
    if (!T && Error)
      *Error = T.error();
    return T ? std::make_shared<const Trace>(T.take()) : nullptr;
  }
  /// The bool is ignored (webs are always built from the columns).
  std::shared_ptr<const ViewWeb> web(const Trace &T, ThreadPool * = nullptr,
                                     bool = true) {
    return std::make_shared<const ViewWeb>(T);
  }
  auto correlation(const ViewWeb &L, const ViewWeb &R) {
    return std::make_shared<const ViewCorrelation>(L, R);
  }
  void clear() {}
};

inline NWayResult cachedNWayDiff(const Trace &Base,
                                 const std::vector<const Trace *> &Mutants,
                                 const ViewsDiffOptions &Options, DiffCache &) {
  return nwayDiff(Base, Mutants, Options);
}

} // namespace rprism

#endif // RPRISM_CACHE_DIFFCACHE_H
