//===- profiling/FrozenGraph.h - Sealed immutable Gcost --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis-phase half of the graph lifecycle. A DepGraph is optimized
/// for interning: open-addressing tables resolve node/edge membership in
/// O(1) while profiling events stream in, and adjacency grows as one
/// insertion-ordered edge log. Once profiling (and the sharded fold) is done, the graph never
/// mutates again — but the paper-scale read paths (CostModel closures,
/// DeadValues sweeps, report aggregation over every heap location) then
/// walk those pointer-chasing structures millions of times.
///
/// FrozenGraph::seal converts the finished graph into an immutable packed
/// form sized for 139K-860K-node Gcosts (the paper's Table 1):
///
///   - CSR adjacency: one offsets array + one dense targets array per
///     direction, grouped out of the edge log by one stable counting pass
///     each, so every node's list keeps insertion order and BFS closures
///     stream contiguous memory;
///   - SoA node attributes: Instr/Domain/freq/flag columns in parallel
///     arrays, so a sweep touches only the bytes it reads (DeadValues
///     reads one meta byte + one freq word per node, not a ~100-byte
///     Node record);
///   - writers/readers/refChildren flattened into offset-indexed spans
///     over one shared sorted HeapLoc universe, whose keyed lookups
///     (writersOf/readersOf/refChildrenOf) search a branchless Eytzinger
///     layout (`i = 2i + (keys[i] < target)` with per-level prefetch)
///     instead of open-addressing probe sequences;
///   - the (tag, allocation node) pairs as one tag-sorted array.
///
/// Nothing is indexed by node key: the analyses walk nodes by id, and the
/// only per-key reads of a sealed graph are by heap location.
///
/// Node ids are preserved exactly, and the per-location value sequences
/// dedup to the first-occurrence order the build phase's insertUnique
/// historically produced, so canonical serialization (GraphIO) and every
/// report stay byte-identical to the mutable representation's.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_FROZENGRAPH_H
#define LUD_PROFILING_FROZENGRAPH_H

#include "profiling/DepGraph.h"

#include <cassert>
#include <span>

namespace lud {

namespace obs {
class MetricsRegistry;
}

/// Branchless lookup table over the heap-location keys, sorted by
/// (Tag, Slot) and stored in Eytzinger (BFS) order: element 1 is the root,
/// element i's children are 2i and 2i+1. A HeapLoc key is 96 bits, so it
/// lives in two parallel columns and each level compares lexicographically
/// with integer ops, never a branch. The descent's next index depends only
/// on that one comparison, so it pipelines and prefetches where a binary
/// search over the sorted array stalls on every level. Payloads are the
/// keys' ranks in sorted order.
class LocEytzingerIndex {
public:
  LocEytzingerIndex() = default;

  /// Builds from parallel columns sorted strictly ascending by (Tag,
  /// Slot). The tree is padded to a full power of two with +inf sentinel
  /// keys so every real key sits in a complete tree: the descent then runs
  /// a fixed number of levels with no data-dependent exit (a half-full
  /// bottom level would otherwise cost a mispredicted branch on most
  /// lookups).
  LocEytzingerIndex(const std::vector<uint64_t> &SortedTags,
                    const std::vector<FieldSlot> &SortedSlots) {
    assert(SortedTags.size() == SortedSlots.size());
    size_t Cap = 2;
    Levels = 1;
    while (Cap - 1 < SortedTags.size()) {
      Cap <<= 1;
      ++Levels;
    }
    Tags.assign(Cap, ~uint64_t(0));
    Slots.assign(Cap, ~FieldSlot(0));
    Rank.assign(Cap, 0);
    size_t Next = 0;
    fill(SortedTags, SortedSlots, Next, 1);
  }

  /// Rank of \p L in the sorted key sequence, or npos when absent.
  static constexpr uint32_t npos = 0xFFFFFFFF;
  uint32_t find(const HeapLoc &L) const {
    // All-ones tags are the padding sentinel; real tags stay below 2^63.
    if (Tags.empty() || L.Tag == ~uint64_t(0))
      return npos;
    const uint64_t *T = Tags.data();
    const FieldSlot *S = Slots.data();
    const size_t Last = Tags.size() - 1;
    size_t I = 1;
    for (uint32_t Lv = 0; Lv != Levels; ++Lv) {
      // Pull the grandchildren's cache line while comparing: 4 levels of
      // the implicit tree (16 keys, two lines) ahead of the descent.
      __builtin_prefetch(&T[std::min(I * 16, Last)]);
      unsigned Less = unsigned(T[I] < L.Tag) |
                      (unsigned(T[I] == L.Tag) & unsigned(S[I] < L.Slot));
      I = 2 * I + Less;
    }
    // The descent ends on a virtual leaf; undoing the trailing right
    // turns (+1) recovers the lower bound. I == 0 means every key < L.
    I >>= __builtin_ffsll((long long)~I);
    if (I == 0 || T[I] != L.Tag || S[I] != L.Slot)
      return npos;
    return Rank[I];
  }

  size_t memoryBytes() const {
    return Tags.capacity() * sizeof(uint64_t) +
           Slots.capacity() * sizeof(FieldSlot) +
           Rank.capacity() * sizeof(uint32_t);
  }

private:
  void fill(const std::vector<uint64_t> &ST, const std::vector<FieldSlot> &SS,
            size_t &Next, size_t I) {
    if (I >= Tags.size() || Next >= ST.size())
      return;
    fill(ST, SS, Next, 2 * I);
    if (Next < ST.size()) {
      Tags[I] = ST[Next];
      Slots[I] = SS[Next];
      Rank[I] = uint32_t(Next);
      ++Next;
    }
    fill(ST, SS, Next, 2 * I + 1);
  }

  /// 1-indexed; slot 0 unused. Power-of-two size, +inf padded.
  std::vector<uint64_t> Tags;
  std::vector<FieldSlot> Slots;
  std::vector<uint32_t> Rank;
  uint32_t Levels = 0;
};

/// Immutable, cache-packed view of a finished DepGraph. See the file
/// comment for the layout; accessors mirror DepGraph's read API.
class FrozenGraph {
public:
  FrozenGraph() = default;

  /// Packs \p G, leaving it intact (profilers keep their build graph for
  /// non-graph state such as location activity).
  explicit FrozenGraph(const DepGraph &G);

  /// Packs \p G and releases the build-phase storage: past this point only
  /// the frozen representation is resident.
  static FrozenGraph seal(DepGraph &&G) {
    FrozenGraph F(G);
    G = DepGraph();
    return F;
  }

  //===--------------------------------------------------------------------===
  // Node attributes (SoA columns).
  //===--------------------------------------------------------------------===

  size_t numNodes() const { return Instrs.size(); }
  size_t numEdges() const { return OutTargets.size(); }
  size_t numRefEdges() const { return RefEdges.size(); }

  InstrId instr(NodeId N) const { return Instrs[N]; }
  uint32_t domain(NodeId N) const { return Domains[N]; }
  uint64_t freq(NodeId N) const { return Freqs[N]; }
  ConsumerKind consumer(NodeId N) const {
    return ConsumerKind((Meta[N] >> kConsumerShift) & 3);
  }
  EffectKind effect(NodeId N) const {
    return EffectKind((Meta[N] >> kEffectShift) & 3);
  }
  HeapLoc effectLoc(NodeId N) const {
    return HeapLoc{EffectTags[N], EffectSlots[N]};
  }
  bool readsHeap(NodeId N) const { return Meta[N] & kReadsHeap; }
  bool writesHeap(NodeId N) const { return Meta[N] & kWritesHeap; }
  bool isAlloc(NodeId N) const { return Meta[N] & kIsAlloc; }
  bool storedRef(NodeId N) const { return Meta[N] & kStoredRef; }

  uint64_t totalFreq() const { return TotalFreq; }

  //===--------------------------------------------------------------------===
  // CSR adjacency. Spans preserve the build phase's per-node insertion
  // order (the canonical serialization contract).
  //===--------------------------------------------------------------------===

  std::span<const NodeId> out(NodeId N) const {
    return {OutTargets.data() + OutOffsets[N],
            OutTargets.data() + OutOffsets[N + 1]};
  }
  std::span<const NodeId> in(NodeId N) const {
    return {InTargets.data() + InOffsets[N],
            InTargets.data() + InOffsets[N + 1]};
  }
  size_t outDegree(NodeId N) const { return OutOffsets[N + 1] - OutOffsets[N]; }
  size_t inDegree(NodeId N) const { return InOffsets[N + 1] - InOffsets[N]; }

  const std::vector<std::pair<NodeId, NodeId>> &refEdges() const {
    return RefEdges;
  }

  /// (tag, allocation node) pairs sorted by tag — the deterministic
  /// iteration the cache ranking, CostModel::allTags and the serializer
  /// need.
  const std::vector<std::pair<uint64_t, NodeId>> &allocEntries() const {
    return AllocEntries;
  }

  //===--------------------------------------------------------------------===
  // Heap-location maps: one sorted universe of every location any of the
  // three maps mentions, with per-map spans. An absent entry is an empty
  // span (the build phase never stores empty vectors).
  //===--------------------------------------------------------------------===

  size_t numLocs() const { return LocTags.size(); }
  HeapLoc loc(size_t I) const { return HeapLoc{LocTags[I], LocSlots[I]}; }

  /// Universe index of \p L, or LocEytzingerIndex::npos when no map
  /// mentions it. The analyses resolve a location once and read the
  /// per-index spans below.
  uint32_t locIndexOf(const HeapLoc &L) const { return LocIndex.find(L); }

  std::span<const NodeId> writersOf(const HeapLoc &L) const {
    uint32_t I = locIndexOf(L);
    return I == LocEytzingerIndex::npos ? std::span<const NodeId>()
                                     : writersAt(I);
  }
  std::span<const NodeId> readersOf(const HeapLoc &L) const {
    uint32_t I = locIndexOf(L);
    return I == LocEytzingerIndex::npos ? std::span<const NodeId>()
                                     : readersAt(I);
  }
  std::span<const uint64_t> refChildrenOf(const HeapLoc &L) const {
    uint32_t I = locIndexOf(L);
    return I == LocEytzingerIndex::npos ? std::span<const uint64_t>()
                                     : refChildrenAt(I);
  }

  /// Per-universe-index spans, for full-map sweeps in sorted-key order.
  /// A tag's locations are contiguous in the universe, by ascending slot.
  std::span<const NodeId> writersAt(size_t I) const {
    return {WriterVals.data() + WriterOffsets[I],
            WriterVals.data() + WriterOffsets[I + 1]};
  }
  std::span<const NodeId> readersAt(size_t I) const {
    return {ReaderVals.data() + ReaderOffsets[I],
            ReaderVals.data() + ReaderOffsets[I + 1]};
  }
  std::span<const uint64_t> refChildrenAt(size_t I) const {
    return {RefChildVals.data() + RefChildOffsets[I],
            RefChildVals.data() + RefChildOffsets[I + 1]};
  }

  //===--------------------------------------------------------------------===
  // Tag codec (DepGraph's, at this graph's slot count).
  //===--------------------------------------------------------------------===

  uint32_t contextSlots() const { return ContextSlots; }
  static uint64_t makeStaticTag(GlobalId G) {
    return DepGraph::makeStaticTag(G);
  }
  static bool isStaticTag(uint64_t Tag) { return DepGraph::isStaticTag(Tag); }
  AllocSiteId tagSite(uint64_t Tag) const {
    return DepGraph::tagSite(Tag, ContextSlots);
  }
  uint32_t tagSlot(uint64_t Tag) const {
    return DepGraph::tagSlot(Tag, ContextSlots);
  }

  //===--------------------------------------------------------------------===
  // Memory accounting (the `mem.frozen.*` telemetry lines).
  //===--------------------------------------------------------------------===

  struct MemoryFootprint {
    /// SoA attribute columns (instr/domain/freq/meta/effect-loc).
    size_t NodeBytes = 0;
    /// CSR offsets + targets, both directions, plus ref edges.
    size_t EdgeBytes = 0;
    /// Location universe keys, per-map offsets and value arrays.
    size_t LocBytes = 0;
    /// Heap-location Eytzinger tree plus the tag-sorted allocation table.
    size_t IndexBytes = 0;
    size_t total() const {
      return NodeBytes + EdgeBytes + LocBytes + IndexBytes;
    }
  };
  MemoryFootprint memoryFootprint() const;

  /// Publishes the footprint as mem.frozen.* gauges.
  void accountStats(obs::MetricsRegistry &R) const;

private:
  // SoA meta byte layout.
  static constexpr uint8_t kReadsHeap = 1u << 0;
  static constexpr uint8_t kWritesHeap = 1u << 1;
  static constexpr uint8_t kIsAlloc = 1u << 2;
  static constexpr uint8_t kStoredRef = 1u << 3;
  static constexpr unsigned kConsumerShift = 4;
  static constexpr unsigned kEffectShift = 6;

  // Node columns.
  std::vector<InstrId> Instrs;
  std::vector<uint32_t> Domains;
  std::vector<uint64_t> Freqs;
  std::vector<uint8_t> Meta;
  std::vector<uint64_t> EffectTags;
  std::vector<FieldSlot> EffectSlots;

  // CSR adjacency.
  std::vector<uint32_t> OutOffsets, InOffsets;
  std::vector<NodeId> OutTargets, InTargets;
  std::vector<std::pair<NodeId, NodeId>> RefEdges;

  // Allocation table, sorted by tag.
  std::vector<std::pair<uint64_t, NodeId>> AllocEntries;

  // Heap-location universe, sorted by (Tag, Slot).
  std::vector<uint64_t> LocTags;
  std::vector<FieldSlot> LocSlots;
  LocEytzingerIndex LocIndex;
  std::vector<uint32_t> WriterOffsets, ReaderOffsets, RefChildOffsets;
  std::vector<NodeId> WriterVals, ReaderVals;
  std::vector<uint64_t> RefChildVals;

  uint64_t TotalFreq = 0;
  uint32_t ContextSlots = 1;
};

} // namespace lud

#endif // LUD_PROFILING_FROZENGRAPH_H
