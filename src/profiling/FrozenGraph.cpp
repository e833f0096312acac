//===- profiling/FrozenGraph.cpp - Sealed immutable Gcost ------------------===//

#include "profiling/FrozenGraph.h"

#include "obs/Metrics.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <unordered_set>

using namespace lud;

namespace {

/// Appends \p V to \p Out keeping the first occurrence of each element, in
/// order — exactly the sequence the build phase's historical exact-dedup
/// insertUnique produced, so the canonical serialization is unchanged.
/// (Since the O(n^2) interning fix, build-phase vectors may carry
/// duplicates past the recent-entry window; this is where they go away.)
template <typename T>
void appendFirstOccurrences(const std::vector<T> &V, std::vector<T> &Out) {
  if (V.size() <= 16) {
    const size_t Start = Out.size();
    for (const T &X : V) {
      bool Seen = false;
      for (size_t I = Start; I != Out.size(); ++I)
        if (Out[I] == X) {
          Seen = true;
          break;
        }
      if (!Seen)
        Out.push_back(X);
    }
    return;
  }
  std::unordered_set<T> Seen;
  Seen.reserve(V.size());
  for (const T &X : V)
    if (Seen.insert(X).second)
      Out.push_back(X);
}

bool locLess(const HeapLoc &A, const HeapLoc &B) {
  return A.Tag != B.Tag ? A.Tag < B.Tag : A.Slot < B.Slot;
}

} // namespace

FrozenGraph::FrozenGraph(const DepGraph &G) {
  const size_t N = G.numNodes();
  if (N >= size_t(kNoNode))
    lud_unreachable("graph too large to seal");
  ContextSlots = G.contextSlots();

  // SoA node columns.
  Instrs.resize(N);
  Domains.resize(N);
  Freqs.resize(N);
  Meta.resize(N);
  EffectTags.resize(N);
  EffectSlots.resize(N);
  for (NodeId I = 0; I != NodeId(N); ++I) {
    const DepGraph::Node &Node = G.node(I);
    Instrs[I] = Node.Instr;
    Domains[I] = Node.Domain;
    Freqs[I] = G.freq(I);
    uint8_t M = 0;
    M |= Node.ReadsHeap ? kReadsHeap : 0;
    M |= Node.WritesHeap ? kWritesHeap : 0;
    M |= Node.IsAlloc ? kIsAlloc : 0;
    M |= Node.StoredRef ? kStoredRef : 0;
    M |= uint8_t(Node.Consumer) << kConsumerShift;
    M |= uint8_t(Node.Effect) << kEffectShift;
    Meta[I] = M;
    EffectTags[I] = Node.EffectLoc.Tag;
    EffectSlots[I] = Node.EffectLoc.Slot;
    TotalFreq += G.freq(I);
  }

  // CSR adjacency, both directions grouped out of the edge log, so each
  // node's out- and in-list keep insertion order.
  if (G.numEdges() > 0xFFFFFFFFull)
    lud_unreachable("edge count exceeds CSR offset range");
  G.groupEdges(/*BySource=*/true, OutOffsets, OutTargets);
  G.groupEdges(/*BySource=*/false, InOffsets, InTargets);
  RefEdges = G.refEdges();

  // Allocation table, sorted by tag.
  AllocEntries.reserve(G.allocNodes().size());
  for (const auto &Entry : G.allocNodes())
    AllocEntries.push_back(Entry);
  std::sort(AllocEntries.begin(), AllocEntries.end());

  // Heap-location universe: the records with a writer, reader or
  // reference child, sorted by (Tag, Slot). A record with none (a node's
  // effect location interned by a merge or a dump read and never listed)
  // says nothing about the heap.
  {
    const std::vector<DepGraph::LocRecord> &Records = G.records();
    std::vector<std::pair<HeapLoc, LocId>> Universe;
    Universe.reserve(Records.size());
    for (LocId I = 0; I != LocId(Records.size()); ++I)
      if (!Records[I].Writers.empty() || !Records[I].Readers.empty() ||
          !Records[I].RefChildren.empty())
        Universe.push_back({Records[I].Loc, I});
    std::sort(Universe.begin(), Universe.end(),
              [](const auto &A, const auto &B) {
                return locLess(A.first, B.first);
              });

    const size_t L = Universe.size();
    LocTags.resize(L);
    LocSlots.resize(L);
    Activity.resize(L);
    WriterOffsets.resize(L + 1);
    ReaderOffsets.resize(L + 1);
    RefChildOffsets.resize(L + 1);
    for (size_t I = 0; I != L; ++I) {
      const DepGraph::LocRecord &R = Records[Universe[I].second];
      LocTags[I] = R.Loc.Tag;
      LocSlots[I] = R.Loc.Slot;
      Activity[I] = R.Activity;
      WriterOffsets[I] = uint32_t(WriterVals.size());
      ReaderOffsets[I] = uint32_t(ReaderVals.size());
      RefChildOffsets[I] = uint32_t(RefChildVals.size());
      appendFirstOccurrences(R.Writers, WriterVals);
      appendFirstOccurrences(R.Readers, ReaderVals);
      appendFirstOccurrences(R.RefChildren, RefChildVals);
    }
    WriterOffsets[L] = uint32_t(WriterVals.size());
    ReaderOffsets[L] = uint32_t(ReaderVals.size());
    RefChildOffsets[L] = uint32_t(RefChildVals.size());
    WriterVals.shrink_to_fit();
    ReaderVals.shrink_to_fit();
    RefChildVals.shrink_to_fit();
  }
}

uint32_t FrozenGraph::locIndexOf(const HeapLoc &L) const {
  size_t Lo = 0, Hi = LocTags.size();
  while (Lo != Hi) {
    size_t Mid = Lo + (Hi - Lo) / 2;
    if (locLess(loc(Mid), L))
      Lo = Mid + 1;
    else
      Hi = Mid;
  }
  if (Lo == LocTags.size() || LocTags[Lo] != L.Tag || LocSlots[Lo] != L.Slot)
    return npos;
  return uint32_t(Lo);
}

FrozenGraph::MemoryFootprint FrozenGraph::memoryFootprint() const {
  MemoryFootprint FP;
  FP.NodeBytes = Instrs.capacity() * sizeof(InstrId) +
                 Domains.capacity() * sizeof(uint32_t) +
                 Freqs.capacity() * sizeof(uint64_t) +
                 Meta.capacity() * sizeof(uint8_t) +
                 EffectTags.capacity() * sizeof(uint64_t) +
                 EffectSlots.capacity() * sizeof(FieldSlot);
  FP.EdgeBytes = (OutOffsets.capacity() + InOffsets.capacity()) *
                     sizeof(uint32_t) +
                 (OutTargets.capacity() + InTargets.capacity()) *
                     sizeof(NodeId) +
                 RefEdges.capacity() * sizeof(std::pair<NodeId, NodeId>);
  FP.LocBytes = LocTags.capacity() * sizeof(uint64_t) +
                LocSlots.capacity() * sizeof(FieldSlot) +
                (WriterOffsets.capacity() + ReaderOffsets.capacity() +
                 RefChildOffsets.capacity()) *
                    sizeof(uint32_t) +
                (WriterVals.capacity() + ReaderVals.capacity()) *
                    sizeof(NodeId) +
                RefChildVals.capacity() * sizeof(uint64_t) +
                Activity.capacity() * sizeof(LocationActivity);
  FP.IndexBytes =
      AllocEntries.capacity() * sizeof(std::pair<uint64_t, NodeId>);
  return FP;
}

void FrozenGraph::accountStats(obs::MetricsRegistry &R) const {
  using obs::Unit;
  MemoryFootprint FP = memoryFootprint();
  R.set(R.gauge("mem.frozen.node_bytes", Unit::Bytes), FP.NodeBytes);
  R.set(R.gauge("mem.frozen.edge_bytes", Unit::Bytes), FP.EdgeBytes);
  R.set(R.gauge("mem.frozen.locmap_bytes", Unit::Bytes), FP.LocBytes);
  R.set(R.gauge("mem.frozen.index_bytes", Unit::Bytes), FP.IndexBytes);
  R.set(R.gauge("mem.frozen.total_bytes", Unit::Bytes), FP.total());
}
