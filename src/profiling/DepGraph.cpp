//===- profiling/DepGraph.cpp - Abstract thin data dependence graph --------===//

#include "profiling/DepGraph.h"

#include <cassert>

using namespace lud;

NodeId DepGraph::hitSlow(InstrId Instr, uint32_t Domain, NodeId SrcA,
                         NodeId SrcB) {
  NodeId N = getOrCreate(Instr, Domain);
  ++Freqs[N];
  addEdge(SrcA, N);
  addEdge(SrcB, N);
  if (Memo.size() < MemoInstrs)
    Memo.resize(MemoInstrs);
  if (Instr < Memo.size())
    Memo[Instr] = {Domain, N, SrcA, SrcB};
  return N;
}

void DepGraph::groupEdges(bool BySource, std::vector<uint32_t> &Offsets,
                          std::vector<NodeId> &Targets) const {
  const size_t N = Nodes.size();
  Offsets.assign(N + 1, 0);
  for (auto [From, To] : Edges)
    ++Offsets[(BySource ? From : To) + 1];
  for (size_t I = 0; I != N; ++I)
    Offsets[I + 1] += Offsets[I];
  Targets.resize(Edges.size());
  // Fill cursors start at each node's offset; placing the log front to
  // back keeps every node's run in log order.
  std::vector<uint32_t> Next(Offsets.begin(), Offsets.end() - 1);
  for (auto [From, To] : Edges) {
    if (BySource)
      Targets[Next[From]++] = To;
    else
      Targets[Next[To]++] = From;
  }
}

std::vector<NodeId> DepGraph::mergeFrom(const DepGraph &O) {
  assert((Nodes.empty() || ContextSlots == O.ContextSlots) &&
         "merging graphs built with different context-slot counts");
  if (Nodes.empty())
    ContextSlots = O.ContextSlots;
  Nodes.reserve(Nodes.size() + O.Nodes.size());

  // Re-intern O's nodes in id order (O's creation order, i.e. first-use
  // order of its run), so a merge into an empty graph reproduces O's
  // numbering exactly.
  std::vector<NodeId> Remap(O.Nodes.size(), kNoNode);
  for (NodeId N = 0, E = NodeId(O.Nodes.size()); N != E; ++N) {
    const Node &Src = O.Nodes[N];
    NodeId Mine = getOrCreate(Src.Instr, Src.Domain);
    Remap[N] = Mine;
    Node &Dst = Nodes[Mine];
    Freqs[Mine] += O.Freqs[N];
    Dst.ReadsHeap |= Src.ReadsHeap;
    Dst.WritesHeap |= Src.WritesHeap;
    Dst.IsAlloc |= Src.IsAlloc;
    Dst.StoredRef |= Src.StoredRef;
    // Last-writer-wins fields: O plays the part of the later run.
    if (Src.Consumer != ConsumerKind::None)
      Dst.Consumer = Src.Consumer;
    if (Src.Effect != EffectKind::None) {
      Dst.Effect = Src.Effect;
      Dst.EffectLoc = Src.EffectLoc;
    }
  }

  // O's edges by source id, each source's in insertion order: the order
  // in which a merge has always replayed them.
  std::vector<uint32_t> OutOffsets;
  std::vector<NodeId> OutTargets;
  O.groupEdges(/*BySource=*/true, OutOffsets, OutTargets);
  for (NodeId N = 0, E = NodeId(O.Nodes.size()); N != E; ++N)
    for (uint32_t I = OutOffsets[N]; I != OutOffsets[N + 1]; ++I)
      addEdge(Remap[N], Remap[OutTargets[I]]);
  for (auto [Store, Alloc] : O.RefEdges)
    addRefEdge(Remap[Store], Remap[Alloc]);

  for (const auto &[Tag, N] : O.AllocNodeByTag)
    noteAlloc(Tag, Remap[N]);
  for (const auto &[Loc, Ns] : O.Writers)
    for (NodeId N : Ns)
      noteWriter(Loc, Remap[N]);
  for (const auto &[Loc, Ns] : O.Readers)
    for (NodeId N : Ns)
      noteReader(Loc, Remap[N]);
  for (const auto &[Loc, Children] : O.RefChildren)
    for (uint64_t C : Children)
      noteRefChild(Loc, C);
  return Remap;
}

DepGraph::MemoryFootprint DepGraph::memoryFootprint() const {
  MemoryFootprint F;
  F.NodeBytes =
      Nodes.capacity() * sizeof(Node) + Freqs.capacity() * sizeof(uint64_t);
  F.EdgeBytes = (Edges.capacity() + RefEdges.capacity()) *
                sizeof(std::pair<NodeId, NodeId>);
  F.LocMapBytes =
      Writers.memoryBytes() + Readers.memoryBytes() + RefChildren.memoryBytes();
  F.InternBytes = NodeByKey.memoryBytes() + EdgeSet.memoryBytes() +
                  RefEdgeSet.memoryBytes() + AllocNodeByTag.memoryBytes();
  for (const auto &[L, V] : Writers)
    F.LocMapBytes += V.capacity() * sizeof(NodeId);
  for (const auto &[L, V] : Readers)
    F.LocMapBytes += V.capacity() * sizeof(NodeId);
  for (const auto &[L, V] : RefChildren)
    F.LocMapBytes += V.capacity() * sizeof(uint64_t);
  return F;
}
