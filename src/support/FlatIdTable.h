//===- support/FlatIdTable.h - Open-addressing key -> id table -----------===//
//
// Part of the RPrism/C++ reproduction of "Semantics-Aware Trace Analysis"
// (Hoffman, Eugster, Jagannathan; PLDI 2009).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat hash table from keys read out of a trace file to dense uint32_t
/// ids: linear probing over one power-of-two slot array, kept at most half
/// full. Its size follows the number of keys, never a key's value, and a
/// key already present ends its own probe, so a file whose keys all agree
/// costs one probe per lookup. Keys that differ only in their high bits
/// spread as well as the hash functor spreads them (hashMix is a bijection
/// of its value for a fixed seed).
///
//===----------------------------------------------------------------------===//

#ifndef RPRISM_SUPPORT_FLATIDTABLE_H
#define RPRISM_SUPPORT_FLATIDTABLE_H

#include <algorithm>
#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace rprism {

/// Key -> id, where \p HashT maps a key to a 64-bit hash. The id None marks
/// a free slot, so it is never stored.
template <typename KeyT, typename HashT> class FlatIdTable {
public:
  static constexpr uint32_t None = ~0u;

  /// Empties the table, sized for \p Keys keys (more make it grow),
  /// keeping its allocation when that is large enough.
  void reset(size_t Keys) {
    Slots.assign(std::bit_ceil(std::max<size_t>(16, Keys * 2)),
                 {KeyT(), None});
    Used = 0;
  }

  /// The id stored for \p Key, or None.
  uint32_t find(const KeyT &Key) const {
    return Slots.empty() ? None : Slots[probe(Key)].second;
  }

  /// The id slot of \p Key, created holding None when absent; the caller
  /// stores an id other than None there before the next call, which may
  /// move the slot.
  uint32_t &slot(const KeyT &Key) {
    if ((Used + 1) * 2 > Slots.size())
      grow();
    auto &[SlotKey, Id] = Slots[probe(Key)];
    if (Id == None) {
      SlotKey = Key;
      ++Used;
    }
    return Id;
  }

private:
  /// Out of line, so that slot() stays small enough to inline.
  [[gnu::noinline]] void grow() {
    std::vector<std::pair<KeyT, uint32_t>> Old(
        std::max<size_t>(16, Slots.size() * 2), {KeyT(), None});
    Old.swap(Slots);
    for (const auto &[OldKey, Id] : Old)
      if (Id != None)
        Slots[probe(OldKey)] = {OldKey, Id};
  }

  /// The index of \p Key's slot, or of the free slot ending its probe.
  size_t probe(const KeyT &Key) const {
    size_t Mask = Slots.size() - 1;
    size_t I = HashT()(Key) & Mask;
    while (Slots[I].second != None && !(Slots[I].first == Key))
      I = (I + 1) & Mask;
    return I;
  }

  std::vector<std::pair<KeyT, uint32_t>> Slots;
  size_t Used = 0;
};

} // namespace rprism

#endif // RPRISM_SUPPORT_FLATIDTABLE_H
