//===- profiling/DepGraph.h - Abstract thin data dependence graph *- C++ -*===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The abstract thin data dependence graph of Definition 2: nodes are
/// (static instruction, abstract domain element) pairs; an edge a->b means
/// an instance of a wrote a location that an instance of b then used. The
/// domain element is a context slot for Gcost, a client-specific id for the
/// other abstractions (nullness, typestate, copy chains), or kNoDomain for
/// the paper's context-free predicate and native consumer nodes.
///
/// The graph also carries the Gcost decorations of Section 2.2: execution
/// frequencies, heap-effect triples (U/B/C), reference edges, and one
/// record per abstract heap location (its writers, readers, reference
/// children and activity counters), which the relative cost-benefit
/// analysis and the overwrite client aggregate over. A location is
/// interned once into a dense LocId; a store or load node keeps the LocId
/// of its effect location, so a steady-state event reaches its record
/// without hashing.
///
/// Adjacency is one insertion-ordered edge log, not per-node vectors: a
/// node record stays 40 bytes with no allocation of its own, and the
/// readers of adjacency read it from the sealed graph (FrozenGraph), whose
/// CSR the seal groups out of the log.
///
/// All interning tables are flat open-addressing tables (support/FlatMap.h)
/// rather than node-based std containers: Definition 2 bounds the node set
/// by |I| x s, so the tables can be sized up front and every profiling
/// event resolves its node and edge membership in O(1) probes on
/// contiguous memory.
///
/// On top of the tables sits the per-instruction memo that every profiler
/// resolves its events through (hit()): per static instruction, the node
/// and the def-use sources of its last event. These abstractions bound the
/// domain, so a repeated event under the same domain element and sources
/// resolves to the node and edges it produced last time and touches only
/// the frequency counter (see docs/PERFORMANCE.md, "Memo caches").
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_DEPGRAPH_H
#define LUD_PROFILING_DEPGRAPH_H

#include "ir/Ids.h"
#include "support/FlatMap.h"
#include "support/FlatSet.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lud {

using NodeId = uint32_t;
inline constexpr NodeId kNoNode = 0xFFFFFFFF;

/// Domain element for context-free nodes (predicates, natives).
inline constexpr uint32_t kNoDomain = 0xFFFFFFFF;

/// Abstract heap location: a context-annotated allocation-site tag plus a
/// field slot (kElemSlot / kLenSlot for arrays, or a static pseudo-tag).
struct HeapLoc {
  uint64_t Tag = 0;
  FieldSlot Slot = 0;

  bool operator==(const HeapLoc &O) const {
    return Tag == O.Tag && Slot == O.Slot;
  }
};

struct HeapLocHash {
  size_t operator()(const HeapLoc &L) const {
    uint64_t H = L.Tag * 0x9E3779B97F4A7C15ULL + L.Slot;
    H ^= H >> 29;
    return size_t(H * 0xBF58476D1CE4E5B9ULL);
  }
};

/// Vacant-slot marker for HeapLoc-keyed flat tables. The tag is kNoTag,
/// which every internLoc call site filters out before insertion.
struct HeapLocEmpty {
  static HeapLoc value() { return HeapLoc{~uint64_t(0), ~FieldSlot(0)}; }
};

template <typename ValueT>
using HeapLocMap = FlatMap<HeapLoc, ValueT, HeapLocHash, HeapLocEmpty>;

/// Dense id of an interned abstract heap location (DepGraph::internLoc).
using LocId = uint32_t;
inline constexpr LocId kNoLoc = 0xFFFFFFFF;

/// Write/read/overwrite counters per abstract heap location, feeding the
/// "rewritten before read" client (Section 3.2, derby case study).
struct LocationActivity {
  uint64_t Writes = 0;
  uint64_t Reads = 0;
  /// Stores that clobbered a value no load ever observed.
  uint64_t Overwrites = 0;
  /// Reads since the location's most recent write — the build/read phase
  /// split the evidence layer classifies on: a build-once-read-many
  /// structure keeps Reads ≈ ReadsAfterLastWrite, an overwrite-dominated
  /// one keeps it near zero.
  uint64_t ReadsAfterLastWrite = 0;
};

/// The paper's heap-effect kinds: 'U' (underlined, allocation), 'B' (boxed,
/// heap store), 'C' (circled, heap load).
enum class EffectKind : uint8_t { None, Alloc, Store, Load };

enum class ConsumerKind : uint8_t { None, Predicate, Native };

/// Static-location pseudo-tags live above this base so they can share the
/// HeapLoc machinery with object fields.
inline constexpr uint64_t kStaticTagBase = uint64_t(1) << 62;

class DepGraph {
public:
  /// Per-node decorations. Execution frequencies live in a dense parallel
  /// array (freq()) rather than here: the frequency bump is the single
  /// hottest graph touch (once per tracked instruction instance), and at
  /// 8 bytes per node the counters of a whole loop body stay in L1, where
  /// the ~100-byte Node records would not.
  struct Node {
    InstrId Instr = kNoInstr;
    uint32_t Domain = kNoDomain;
    ConsumerKind Consumer = ConsumerKind::None;
    EffectKind Effect = EffectKind::None;
    /// Most recent heap effect location (last-writer-wins, as in the
    /// paper's H environment; the location records keep the full history).
    HeapLoc EffectLoc;
    // Node classification mirrored from the instruction, so traversals do
    // not need the Module.
    bool ReadsHeap = false;
    bool WritesHeap = false;
    bool IsAlloc = false;
    /// A heap store that (at least once) stored a reference: it builds
    /// data-structure spine, which thin slicing deliberately keeps out of
    /// value flow — consumers of this fact: the optimizer must not treat
    /// such stores as removable dead values.
    bool StoredRef = false;
    /// The interned EffectLoc of a store or load node; kNoLoc otherwise.
    LocId EffectLocId = kNoLoc;
  };
  /// Adjacency is not per node: the graph keeps one edge log (edges()),
  /// and FrozenGraph groups it by node when it seals.
  static_assert(sizeof(Node) == 40, "no per-node allocation");

  /// Everything the graph knows about one abstract heap location.
  struct LocRecord {
    HeapLoc Loc;
    /// Store nodes that wrote the location, load nodes that read it, and
    /// the tags of objects stored into it (object reference tree edges of
    /// Definition 7). Each may repeat an entry older than insertUnique's
    /// window; the seal removes the repeats.
    std::vector<NodeId> Writers;
    std::vector<NodeId> Readers;
    std::vector<uint64_t> RefChildren;
    LocationActivity Activity;
  };

  /// Returns the node for (Instr, Domain), creating it on first use.
  NodeId getOrCreate(InstrId Instr, uint32_t Domain) {
    uint64_t Key = (uint64_t(Instr) << 32) | Domain;
    auto [Id, Inserted] = NodeByKey.insert(Key, NodeId(Nodes.size()));
    if (Inserted) {
      Nodes.emplace_back();
      Nodes.back().Instr = Instr;
      Nodes.back().Domain = Domain;
      Freqs.push_back(0);
    }
    return Id;
  }

  /// Returns the node for (Instr, Domain) or kNoNode.
  NodeId lookup(InstrId Instr, uint32_t Domain) const {
    auto It = NodeByKey.find((uint64_t(Instr) << 32) | Domain);
    return It == NodeByKey.end() ? kNoNode : It->second;
  }

  Node &node(NodeId N) { return Nodes[N]; }
  const Node &node(NodeId N) const { return Nodes[N]; }
  /// Execution frequency of node \p N (instances covered by the node).
  uint64_t &freq(NodeId N) { return Freqs[N]; }
  uint64_t freq(NodeId N) const { return Freqs[N]; }
  size_t numNodes() const { return Nodes.size(); }
  size_t numEdges() const { return EdgeSet.size(); }
  size_t numRefEdges() const { return RefEdgeSet.size(); }

  /// Resolves one event of \p Instr under \p Domain whose value flows from
  /// up to two def-use sources (kNoNode for none): returns the node for
  /// (Instr, Domain) with its frequency bumped, after recording the edges
  /// SrcA -> node and SrcB -> node, in that order. This is the one event
  /// entry point of the substrate and the clients; an event with more
  /// sources adds the rest through addEdge.
  ///
  /// With the memo armed (armMemo), an instruction repeating its last
  /// domain element skips the node-table probe, and each source equal to
  /// the last event's skips addEdge: that edge is already in EdgeSet, so
  /// the call could not change anything.
  NodeId hit(InstrId Instr, uint32_t Domain, NodeId SrcA = kNoNode,
             NodeId SrcB = kNoNode) {
    if (Instr < Memo.size()) {
      InstrMemo &E = Memo[Instr];
      if (E.Domain == Domain && E.Node != kNoNode) {
        ++Freqs[E.Node];
        if (E.SrcA != SrcA) {
          addEdge(SrcA, E.Node);
          E.SrcA = SrcA;
        }
        if (E.SrcB != SrcB) {
          addEdge(SrcB, E.Node);
          E.SrcB = SrcB;
        }
        return E.Node;
      }
    }
    return hitSlow(Instr, Domain, SrcA, SrcB);
  }

  /// Records a def-use edge From -> To (dedup'd); a kNoNode source (an
  /// untracked value) and a self-edge record nothing.
  void addEdge(NodeId From, NodeId To) {
    if (From == To || From == kNoNode)
      return;
    if (EdgeSet.insert(edgeKey(From, To)))
      Edges.emplace_back(From, To);
  }

  /// Every def-use edge (From, To), once each, in the order addEdge first
  /// recorded it. A node's out-list (in-list) is the subsequence of edges
  /// leaving (entering) it, so this one log fixes both orders.
  const std::vector<std::pair<NodeId, NodeId>> &edges() const { return Edges; }

  /// Groups the edge log by source (\p BySource) or by target, as CSR: the
  /// edges of node N are Targets[Offsets[N], Offsets[N + 1]), holding the
  /// far end of each, in log order (one stable counting pass).
  void groupEdges(bool BySource, std::vector<uint32_t> &Offsets,
                  std::vector<NodeId> &Targets) const;

  /// Records a reference edge: heap-store node -> allocation node of the
  /// object whose field was written (Figure 3's dashed arrows).
  void addRefEdge(NodeId Store, NodeId Alloc) {
    uint64_t Key = edgeKey(Store, Alloc);
    if (HotPathMemo && Key == LastRefEdgeKey)
      return;
    LastRefEdgeKey = Key;
    if (RefEdgeSet.insert(Key))
      RefEdges.emplace_back(Store, Alloc);
  }
  const std::vector<std::pair<NodeId, NodeId>> &refEdges() const {
    return RefEdges;
  }

  /// Enables/disables the memos (on by default; SlicingConfig::HotPathCaches
  /// off selects the cache-free reference path the equivalence tests
  /// compare against). Off, hit() always probes the node table and calls
  /// addEdge.
  void setHotPathMemo(bool On) {
    HotPathMemo = On;
    if (!On) {
      Memo.clear();
      MemoInstrs = 0;
    }
    LastRefEdgeKey = ~uint64_t(0);
  }

  /// Arms the per-instruction memo for a module with \p NumInstrs static
  /// instructions (a no-op while the memos are off). The first event
  /// allocates it, so a graph that sees none costs nothing. Entries name
  /// only this graph's nodes and edges, which are never renumbered or
  /// removed, so they stay true across runs, modules and merges.
  void armMemo(uint32_t NumInstrs) {
    if (HotPathMemo)
      MemoInstrs = NumInstrs;
  }
  /// Bytes held by the per-instruction memo.
  size_t memoBytes() const { return Memo.capacity() * sizeof(InstrMemo); }

  /// Pre-sizes the interning tables for a module with \p NumInstrs static
  /// instructions. Definition 2 bounds nodes by |I| x s, but CR ~ 0 means
  /// most instructions see one context slot, so the expected node count is
  /// ~|I|; edges are a small multiple of that.
  void reserveForRun(uint32_t NumInstrs) {
    Nodes.reserve(NumInstrs);
    Freqs.reserve(NumInstrs);
    NodeByKey.reserve(NumInstrs);
    EdgeSet.reserve(size_t(NumInstrs) * 2);
  }

  //===--------------------------------------------------------------------===
  // Abstract heap location bookkeeping (drives Definitions 5-7).
  //===--------------------------------------------------------------------===

  /// Allocation node that created objects with \p Tag.
  void noteAlloc(uint64_t Tag, NodeId N) { AllocNodeByTag[Tag] = N; }
  NodeId allocNodeFor(uint64_t Tag) const {
    auto It = AllocNodeByTag.find(Tag);
    return It == AllocNodeByTag.end() ? kNoNode : It->second;
  }
  const FlatMap<uint64_t, NodeId> &allocNodes() const {
    return AllocNodeByTag;
  }

  /// The record of \p L, created (empty) on first use.
  LocId internLoc(const HeapLoc &L) {
    auto [Id, Inserted] = LocIds.insert(L, LocId(Records.size()));
    if (Inserted)
      Records.push_back(LocRecord{L, {}, {}, {}, {}});
    return Id;
  }
  /// The LocId of \p L, or kNoLoc when no event or merge interned it.
  LocId findLoc(const HeapLoc &L) const {
    auto It = LocIds.find(L);
    return It == LocIds.end() ? kNoLoc : It->second;
  }

  /// Store node \p N wrote location \p L.
  void noteWriter(LocId L, NodeId N) { insertUnique(Records[L].Writers, N); }
  /// Load node \p N read location \p L.
  void noteReader(LocId L, NodeId N) { insertUnique(Records[L].Readers, N); }
  /// A store into \p L put a reference to an object tagged \p ChildTag
  /// there.
  void noteRefChild(LocId L, uint64_t ChildTag) {
    insertUnique(Records[L].RefChildren, ChildTag);
  }

  LocRecord &record(LocId L) { return Records[L]; }
  const LocRecord &record(LocId L) const { return Records[L]; }
  /// Every location record, by LocId (first-use order).
  const std::vector<LocRecord> &records() const { return Records; }

  //===--------------------------------------------------------------------===
  // Tag codec. Object tags are (allocation site, context slot) pairs; the
  // encoder needs the slot count used during profiling.
  //===--------------------------------------------------------------------===

  void setContextSlots(uint32_t S) { ContextSlots = S; }
  uint32_t contextSlots() const { return ContextSlots; }

  /// The codec itself, shared by every holder of a slot count: the graphs
  /// below, TagEnv's ALLOC rule, and the clients' site lookups.
  static uint64_t makeTag(AllocSiteId Site, uint32_t Slot,
                          uint32_t ContextSlots) {
    uint64_t Tag = uint64_t(Site) * ContextSlots + Slot;
    // site x slots must stay below the static pseudo-tag range: a
    // collision would silently alias an object field with a global.
    // 2^62 / 2^32 leaves 2^30 context slots before this can trip.
    assert(!isStaticTag(Tag) &&
           "allocation tag collides with the static-tag range");
    return Tag;
  }
  static uint64_t makeStaticTag(GlobalId G) { return kStaticTagBase + G; }
  static bool isStaticTag(uint64_t Tag) { return Tag >= kStaticTagBase; }
  static AllocSiteId tagSite(uint64_t Tag, uint32_t ContextSlots) {
    return AllocSiteId(Tag / ContextSlots);
  }
  static uint32_t tagSlot(uint64_t Tag, uint32_t ContextSlots) {
    return uint32_t(Tag % ContextSlots);
  }
  AllocSiteId tagSite(uint64_t Tag) const {
    return tagSite(Tag, ContextSlots);
  }
  uint32_t tagSlot(uint64_t Tag) const { return tagSlot(Tag, ContextSlots); }

  /// Sum of node frequencies: the instruction instances the graph covers.
  uint64_t totalFreq() const {
    uint64_t Sum = 0;
    for (uint64_t F : Freqs)
      Sum += F;
    return Sum;
  }

  /// Merges \p O into this graph: nodes are re-interned by their
  /// (instruction, domain) key, frequencies are summed, edges and the
  /// location records are unioned, and last-writer-wins fields (Effect,
  /// EffectLoc, allocation nodes) take \p O's value, treating \p O as the
  /// later of two sequential runs. Activity counters add up, except that a
  /// write in \p O resets the tail-read count, so O's ReadsAfterLastWrite
  /// then stands alone. Returns the node renumbering (O's NodeId -> this
  /// graph's NodeId) so profiler-level per-node state can be merged too.
  /// Both graphs must use the same context-slot count.
  std::vector<NodeId> mergeFrom(const DepGraph &O);

  /// Approximate resident bytes of the graph (Table 1's M column; excludes
  /// the shadow heap, as the paper's M column does). The four fields
  /// partition total(): each table is counted in exactly one of them.
  struct MemoryFootprint {
    /// Node records and frequencies.
    size_t NodeBytes = 0;
    /// The data and ref edge logs.
    size_t EdgeBytes = 0;
    /// Location records, their value vectors and the LocId table.
    size_t LocMapBytes = 0;
    /// Interning tables: node key map, edge dedup sets, alloc-node map.
    size_t InternBytes = 0;
    size_t total() const {
      return NodeBytes + EdgeBytes + LocMapBytes + InternBytes;
    }
  };
  MemoryFootprint memoryFootprint() const;

private:
  /// Per static instruction: the domain element, node and def-use sources
  /// of its last event. Node == kNoNode marks a vacant entry.
  struct InstrMemo {
    uint32_t Domain = kNoDomain;
    NodeId Node = kNoNode;
    NodeId SrcA = kNoNode;
    NodeId SrcB = kNoNode;
  };
  static_assert(sizeof(InstrMemo) == 16, "one memo entry per 16 bytes");

  NodeId hitSlow(InstrId Instr, uint32_t Domain, NodeId SrcA, NodeId SrcB);

  static uint64_t edgeKey(NodeId A, NodeId B) {
    return (uint64_t(A) << 32) | B;
  }
  template <typename T>
  static void insertUnique(std::vector<T> &V, const T &X) {
    // Fast path: the profiler notes the same (location, node) pair on
    // every dynamic instance, so the duplicate is almost always among the
    // entries appended last. Only a bounded window is checked — a full
    // scan made many-writer locations quadratic in the number of distinct
    // writers, which paper-scale composed workloads hit hard. A duplicate
    // older than the window is appended again; FrozenGraph::seal performs
    // the exact first-occurrence dedup once, after profiling, so every
    // observable consumer (serialization, analyses, reports) still sees
    // the historical exact-dedup sequence.
    size_t Stop = V.size() > kDedupWindow ? V.size() - kDedupWindow : 0;
    for (size_t I = V.size(); I != Stop; --I)
      if (V[I - 1] == X)
        return;
    V.push_back(X);
  }
  static constexpr size_t kDedupWindow = 8;

  std::vector<Node> Nodes;
  /// Execution frequencies, parallel to Nodes (see the Node doc comment).
  std::vector<uint64_t> Freqs;
  FlatMap<uint64_t, NodeId> NodeByKey;
  FlatSet<uint64_t> EdgeSet;
  /// The edges EdgeSet admitted, in insertion order (edges()).
  std::vector<std::pair<NodeId, NodeId>> Edges;
  FlatSet<uint64_t> RefEdgeSet;
  std::vector<std::pair<NodeId, NodeId>> RefEdges;
  FlatMap<uint64_t, NodeId> AllocNodeByTag;
  /// Location records by LocId, and the table that interns them.
  std::vector<LocRecord> Records;
  HeapLocMap<LocId> LocIds;
  /// Indexed by InstrId; grown to MemoInstrs (the armMemo size) by the
  /// first event, and empty while the memos are off.
  std::vector<InstrMemo> Memo;
  uint32_t MemoInstrs = 0;
  uint64_t LastRefEdgeKey = ~uint64_t(0);
  bool HotPathMemo = true;
  uint32_t ContextSlots = 1;
};

} // namespace lud

#endif // LUD_PROFILING_DEPGRAPH_H
