//===- support/FlatMap.h - Open-addressing hash map ------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A flat open-addressing hash map tuned for the profiler's event hot path:
/// power-of-two capacity, linear probing, no tombstones (the profiler only
/// ever inserts), and contiguous std::pair<Key, Value> slots so a probe is
/// one cache line touch in the common case. One key value is reserved as
/// the vacant-slot marker; inserting that exact key is still legal — it is
/// routed to a dedicated side slot — so the full key space remains usable.
///
/// Supports the subset of the std::unordered_map interface the analyses
/// consume (find/count/at/operator[]/range-for) plus an insert() that
/// reports whether the key was new, which is what DepGraph::getOrCreate
/// needs.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SUPPORT_FLATMAP_H
#define LUD_SUPPORT_FLATMAP_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace lud {

/// Default bit-mixing hash for integer keys. Linear probing over a
/// power-of-two table needs avalanche in the low bits; this is the
/// splitmix64 finalizer.
struct FlatIntHash {
  size_t operator()(uint64_t K) const {
    K += 0x9E3779B97F4A7C15ULL;
    K = (K ^ (K >> 30)) * 0xBF58476D1CE4E5B9ULL;
    K = (K ^ (K >> 27)) * 0x94D049BB133111EBULL;
    return size_t(K ^ (K >> 31));
  }
};

/// Default vacant-slot marker: all-ones, which the profiler's id spaces
/// already reserve as their "absent" sentinel.
template <typename KeyT> struct FlatEmptyKey {
  static KeyT value() { return KeyT(~uint64_t(0)); }
};

template <typename KeyT, typename ValueT, typename HashT = FlatIntHash,
          typename EmptyT = FlatEmptyKey<KeyT>>
class FlatMap {
  using Slot = std::pair<KeyT, ValueT>;

public:
  FlatMap() = default;

  size_t size() const { return Count + (HasEmptyKey ? 1 : 0); }
  bool empty() const { return size() == 0; }

  void clear() {
    Slots.clear();
    Mask = 0;
    Count = 0;
    HasEmptyKey = false;
    EmptySlot.second = ValueT();
  }

  /// Ensures \p N keys fit without rehashing.
  void reserve(size_t N) {
    size_t Cap = capacityFor(N);
    if (Cap > Slots.size())
      rehash(Cap);
  }

  /// Inserts (K, V) if K is absent. Returns the mapped value and whether
  /// the key was newly inserted (std::map-style, minus the iterator).
  std::pair<ValueT &, bool> insert(const KeyT &K, ValueT V = ValueT()) {
    if (K == EmptyT::value()) {
      bool Fresh = !HasEmptyKey;
      if (Fresh) {
        HasEmptyKey = true;
        EmptySlot = {K, std::move(V)};
      }
      return {EmptySlot.second, Fresh};
    }
    growIfNeeded();
    size_t Idx = probe(K);
    if (Slots[Idx].first == K)
      return {Slots[Idx].second, false};
    Slots[Idx] = {K, std::move(V)};
    ++Count;
    return {Slots[Idx].second, true};
  }

  ValueT &operator[](const KeyT &K) { return insert(K).first; }

  //===--------------------------------------------------------------------===
  // Iteration: normal slots are indices [0, Slots.size()); the reserved-key
  // side slot is the pseudo-index Slots.size(); end() is one past that.
  //===--------------------------------------------------------------------===

  template <typename MapT, typename SlotT> class IterImpl {
  public:
    IterImpl(MapT *M, size_t I) : M(M), Idx(I) { skipVacant(); }
    SlotT &operator*() const { return M->slotAt(Idx); }
    SlotT *operator->() const { return &M->slotAt(Idx); }
    IterImpl &operator++() {
      ++Idx;
      skipVacant();
      return *this;
    }
    bool operator==(const IterImpl &O) const { return Idx == O.Idx; }
    bool operator!=(const IterImpl &O) const { return Idx != O.Idx; }

  private:
    void skipVacant() {
      size_t N = M->Slots.size();
      while (Idx < N && M->Slots[Idx].first == EmptyT::value())
        ++Idx;
      if (Idx == N && !M->HasEmptyKey)
        ++Idx;
    }
    MapT *M;
    size_t Idx;
  };
  using iterator = IterImpl<FlatMap, Slot>;
  using const_iterator = IterImpl<const FlatMap, const Slot>;

  iterator begin() { return {this, 0}; }
  iterator end() { return {this, Slots.size() + 1}; }
  const_iterator begin() const { return {this, 0}; }
  const_iterator end() const { return {this, Slots.size() + 1}; }

  iterator find(const KeyT &K) { return {this, findIndex(K)}; }
  const_iterator find(const KeyT &K) const { return {this, findIndex(K)}; }

  size_t count(const KeyT &K) const {
    return findIndex(K) != Slots.size() + 1 ? 1 : 0;
  }
  const ValueT &at(const KeyT &K) const {
    size_t Idx = findIndex(K);
    assert(Idx != Slots.size() + 1 && "FlatMap::at: key not present");
    return slotAt(Idx).second;
  }

  /// Bytes held by the table itself (for memory-footprint accounting; the
  /// values' own heap allocations are the caller's to add).
  size_t memoryBytes() const { return Slots.capacity() * sizeof(Slot); }

  /// Smallest power-of-two capacity holding \p N keys at 3/4 load. Pure and
  /// public so the overflow boundary is unit-testable without allocating.
  static size_t capacityFor(size_t N) {
    // Max load factor 3/4: grow while N > 3*Cap/4, phrased so neither
    // side can overflow — the old `Cap * 3 < N * 4` form wrapped for
    // N > SIZE_MAX / 4 and spun forever at a stuck capacity.
    size_t Cap = 8;
    while (N > Cap - Cap / 4 && Cap <= (SIZE_MAX >> 1))
      Cap <<= 1;
    return Cap;
  }

private:
  friend iterator;
  friend const_iterator;

  Slot &slotAt(size_t Idx) {
    return Idx == Slots.size() ? EmptySlot : Slots[Idx];
  }
  const Slot &slotAt(size_t Idx) const {
    return Idx == Slots.size() ? EmptySlot : Slots[Idx];
  }

  /// Index of the slot holding K, or of the vacant slot where it belongs.
  size_t probe(const KeyT &K) const {
    size_t Idx = HashT{}(K)&Mask;
    while (!(Slots[Idx].first == EmptyT::value()) &&
           !(Slots[Idx].first == K))
      Idx = (Idx + 1) & Mask;
    return Idx;
  }

  /// end()-style index of K, for find/count/at.
  size_t findIndex(const KeyT &K) const {
    size_t End = Slots.size() + 1;
    if (K == EmptyT::value())
      return HasEmptyKey ? Slots.size() : End;
    if (Slots.empty())
      return End;
    size_t Idx = probe(K);
    return Slots[Idx].first == K ? Idx : End;
  }

  void growIfNeeded() {
    if (Slots.empty())
      rehash(8);
    else if (Count + 1 > Slots.size() - Slots.size() / 4)
      rehash(Slots.size() * 2);
  }

  void rehash(size_t NewCap) {
    assert((NewCap & (NewCap - 1)) == 0 && "capacity must be a power of two");
    std::vector<Slot> Old = std::move(Slots);
    Slots.assign(NewCap, Slot{EmptyT::value(), ValueT()});
    Mask = NewCap - 1;
    for (Slot &S : Old) {
      if (S.first == EmptyT::value())
        continue;
      size_t Idx = HashT{}(S.first) & Mask;
      while (!(Slots[Idx].first == EmptyT::value()))
        Idx = (Idx + 1) & Mask;
      Slots[Idx] = std::move(S);
    }
  }

  std::vector<Slot> Slots;
  size_t Mask = 0;
  size_t Count = 0;
  bool HasEmptyKey = false;
  Slot EmptySlot{EmptyT::value(), ValueT()};
};

} // namespace lud

#endif // LUD_SUPPORT_FLATMAP_H
