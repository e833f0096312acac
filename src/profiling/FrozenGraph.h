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
///   - the build graph's location records flattened into offset-indexed
///     writer/reader/refChildren spans and an activity column over one
///     HeapLoc universe sorted by (Tag, Slot), read by universe index
///     (writersAt/readersAt/refChildrenAt/activityAt); a tag's locations
///     are one contiguous run, so the analyses sweep the universe or a
///     tag's run and never look a location up per access;
///   - the (tag, allocation node) pairs as one tag-sorted array.
///
/// Nothing is indexed by key: the analyses walk nodes by id and locations
/// by universe index. The one keyed read, locIndexOf, is a binary search
/// over the sorted location columns for a caller that holds a HeapLoc.
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

#include <span>

namespace lud {

namespace obs {
class MetricsRegistry;
}

/// Immutable, cache-packed view of a finished DepGraph. See the file
/// comment for the layout; accessors mirror DepGraph's read API.
class FrozenGraph {
public:
  FrozenGraph() = default;

  /// Packs \p G, leaving it intact: a profiler keeps its build graph for
  /// what the seal drops (the CR summary and the overwrite and
  /// constant-predicate clients read it).
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
  // Heap locations: one sorted universe of every location record with a
  // writer, reader or reference child, with per-list spans (an empty span
  // where the record has none) and the record's activity counters.
  //===--------------------------------------------------------------------===

  size_t numLocs() const { return LocTags.size(); }
  HeapLoc loc(size_t I) const { return HeapLoc{LocTags[I], LocSlots[I]}; }

  /// Universe index of \p L, or npos when no map mentions it: a binary
  /// search over the sorted location columns, for a caller that holds a
  /// location rather than an index.
  static constexpr uint32_t npos = 0xFFFFFFFF;
  uint32_t locIndexOf(const HeapLoc &L) const;

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
  /// The location's write/read/overwrite counters (all zero for a graph
  /// read back from a dump, which carries none).
  const LocationActivity &activityAt(size_t I) const { return Activity[I]; }

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
    /// Location universe keys, per-list offsets and value arrays, and the
    /// activity column.
    size_t LocBytes = 0;
    /// The tag-sorted allocation table.
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
  std::vector<uint32_t> WriterOffsets, ReaderOffsets, RefChildOffsets;
  std::vector<NodeId> WriterVals, ReaderVals;
  std::vector<uint64_t> RefChildVals;
  std::vector<LocationActivity> Activity;

  uint64_t TotalFreq = 0;
  uint32_t ContextSlots = 1;
};

} // namespace lud

#endif // LUD_PROFILING_FROZENGRAPH_H
