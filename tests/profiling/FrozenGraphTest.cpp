//===- tests/profiling/FrozenGraphTest.cpp - Sealed representation ---------===//
//
// Covers the build -> seal boundary: every FrozenGraph accessor must agree
// with the DepGraph it was sealed from, at unit size, at location-universe
// sizes on either side of a power of two with deliberate miss probes of
// the location search, and at the paper-scale 100K+ node tier, including
// merged shards.
//
//===----------------------------------------------------------------------===//

#include "profiling/DepGraph.h"
#include "profiling/FrozenGraph.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

using namespace lud;

namespace {

/// Builds a deterministic pseudo-random graph with \p NumNodes nodes and
/// the full attribute/edge/location surface exercised.
DepGraph buildSynthetic(size_t NumNodes, uint64_t Seed) {
  DepGraph G;
  G.setContextSlots(16);
  RNG R(Seed);
  std::vector<NodeId> Ids;
  Ids.reserve(NumNodes);
  for (size_t I = 0; I != NumNodes; ++I) {
    // Non-contiguous instr ids and varying domains: the sealed index must
    // not rely on density.
    InstrId Instr = InstrId(I * 3 + (I % 5));
    uint32_t Domain = uint32_t(R.nextBelow(16));
    NodeId N = G.getOrCreate(Instr, Domain);
    Ids.push_back(N);
    G.freq(N) += R.nextBelow(1000) + 1;
    DepGraph::Node &Node = G.node(N);
    Node.ReadsHeap = R.nextBelow(2) != 0;
    Node.WritesHeap = R.nextBelow(2) != 0;
    Node.StoredRef = R.nextBelow(8) == 0;
    Node.Consumer = ConsumerKind(R.nextBelow(3));
    if (R.nextBelow(4) == 0) {
      Node.Effect = EffectKind(1 + R.nextBelow(3));
      Node.EffectLoc = HeapLoc{R.nextBelow(5000), FieldSlot(R.nextBelow(8))};
    }
  }
  for (size_t I = 1; I < Ids.size(); ++I) {
    G.addEdge(Ids[R.nextBelow(I)], Ids[I]);
    if (R.nextBelow(4) == 0)
      G.addEdge(Ids[I], Ids[R.nextBelow(I)]);
  }
  // Allocation sites: every ~20th node is an allocation with a tag.
  for (size_t I = 0; I < Ids.size(); I += 20) {
    uint64_t Tag = DepGraph::makeTag(AllocSiteId(I / 20), uint32_t(I % 16),
                                     G.contextSlots());
    G.node(Ids[I]).IsAlloc = true;
    G.noteAlloc(Tag, Ids[I]);
    G.addRefEdge(Ids[R.nextBelow(Ids.size())], Ids[I]);
  }
  // Heap locations: ~NumNodes/4 distinct locs, each with a handful of
  // writers/readers and the occasional ref child.
  size_t NumLocs = NumNodes / 4 + 1;
  for (size_t L = 0; L != NumLocs; ++L) {
    LocId Loc = G.internLoc({R.nextBelow(1u << 20), FieldSlot(R.nextBelow(8))});
    for (size_t K = 0, E = 1 + R.nextBelow(4); K != E; ++K)
      G.noteWriter(Loc, Ids[R.nextBelow(Ids.size())]);
    for (size_t K = 0, E = R.nextBelow(4); K != E; ++K)
      G.noteReader(Loc, Ids[R.nextBelow(Ids.size())]);
    if (R.nextBelow(8) == 0)
      G.noteRefChild(Loc, R.nextBelow(1u << 20));
  }
  return G;
}

/// Full accessor-equivalence check between a build graph and its seal.
void expectEquivalent(const DepGraph &G, const FrozenGraph &F) {
  ASSERT_EQ(F.numNodes(), G.numNodes());
  ASSERT_EQ(F.numEdges(), G.numEdges());
  ASSERT_EQ(F.numRefEdges(), G.numRefEdges());
  ASSERT_EQ(F.contextSlots(), G.contextSlots());

  // Each node's in- and out-list as its subsequence of the edge log, in
  // one pass over the log.
  std::vector<std::vector<NodeId>> Out(G.numNodes()), In(G.numNodes());
  for (auto [From, To] : G.edges()) {
    Out[From].push_back(To);
    In[To].push_back(From);
  }

  uint64_t Total = 0;
  for (NodeId N = 0; N != G.numNodes(); ++N) {
    const DepGraph::Node &Src = G.node(N);
    ASSERT_EQ(F.instr(N), Src.Instr);
    ASSERT_EQ(F.domain(N), Src.Domain);
    ASSERT_EQ(F.freq(N), G.freq(N));
    ASSERT_EQ(F.consumer(N), Src.Consumer);
    ASSERT_EQ(F.effect(N), Src.Effect);
    if (Src.Effect != EffectKind::None) {
      ASSERT_EQ(F.effectLoc(N).Tag, Src.EffectLoc.Tag);
      ASSERT_EQ(F.effectLoc(N).Slot, Src.EffectLoc.Slot);
    }
    ASSERT_EQ(F.readsHeap(N), Src.ReadsHeap);
    ASSERT_EQ(F.writesHeap(N), Src.WritesHeap);
    ASSERT_EQ(F.isAlloc(N), Src.IsAlloc);
    ASSERT_EQ(F.storedRef(N), Src.StoredRef);
    // CSR adjacency preserves per-node insertion order.
    ASSERT_TRUE(std::ranges::equal(F.out(N), Out[N])) << "node " << N;
    ASSERT_TRUE(std::ranges::equal(F.in(N), In[N])) << "node " << N;
    Total += G.freq(N);
  }
  ASSERT_EQ(F.totalFreq(), Total);

  // The allocation table is the build graph's, in tag order.
  std::vector<std::pair<uint64_t, NodeId>> Allocs;
  for (const auto &Entry : G.allocNodes())
    Allocs.push_back(Entry);
  std::sort(Allocs.begin(), Allocs.end());
  ASSERT_EQ(F.allocEntries(), Allocs);

  // Location records: each list of each record resolves to its
  // location's universe index, whose span holds the list's values.
  auto checkLists = [&](auto ListOf, auto SpanAt) {
    for (const DepGraph::LocRecord &Rec : G.records()) {
      const auto &Vals = ListOf(Rec);
      if (Vals.empty())
        continue;
      uint32_t I = F.locIndexOf(Rec.Loc);
      ASSERT_NE(I, FrozenGraph::npos);
      auto Span = SpanAt(I);
      ASSERT_EQ(Span.size(), Vals.size());
      ASSERT_TRUE(std::equal(Span.begin(), Span.end(), Vals.begin()));
    }
  };
  checkLists([](const DepGraph::LocRecord &Rec) { return Rec.Writers; },
             [&](uint32_t I) { return F.writersAt(I); });
  checkLists([](const DepGraph::LocRecord &Rec) { return Rec.Readers; },
             [&](uint32_t I) { return F.readersAt(I); });
  checkLists([](const DepGraph::LocRecord &Rec) { return Rec.RefChildren; },
             [&](uint32_t I) { return F.refChildrenAt(I); });
  ASSERT_EQ(F.locIndexOf(HeapLoc{0xDEADBEEFull << 21, 7}), FrozenGraph::npos);

  // The universe holds the listed locations and nothing else: every
  // location resolves to its own index, a list its record lacks has an
  // empty span, and its activity is its record's.
  for (size_t LI = 0; LI != F.numLocs(); ++LI) {
    HeapLoc L = F.loc(LI);
    ASSERT_EQ(F.locIndexOf(L), LI);
    LocId Id = G.findLoc(L);
    ASSERT_NE(Id, kNoLoc);
    const DepGraph::LocRecord &Rec = G.record(Id);
    ASSERT_EQ(F.writersAt(LI).empty(), Rec.Writers.empty());
    ASSERT_EQ(F.readersAt(LI).empty(), Rec.Readers.empty());
    ASSERT_EQ(F.refChildrenAt(LI).empty(), Rec.RefChildren.empty());
    ASSERT_EQ(F.activityAt(LI).Writes, Rec.Activity.Writes);
    ASSERT_EQ(F.activityAt(LI).Reads, Rec.Activity.Reads);
    ASSERT_EQ(F.activityAt(LI).Overwrites, Rec.Activity.Overwrites);
    ASSERT_EQ(F.activityAt(LI).ReadsAfterLastWrite,
              Rec.Activity.ReadsAfterLastWrite);
  }
}

TEST(FrozenGraphTest, EmptyGraphSeals) {
  DepGraph G;
  FrozenGraph F(G);
  EXPECT_EQ(F.numNodes(), 0u);
  EXPECT_TRUE(F.allocEntries().empty());
  EXPECT_EQ(F.numLocs(), 0u);
  EXPECT_EQ(F.locIndexOf(HeapLoc{1, 2}), FrozenGraph::npos);
}

/// The \p I-th location, in sorted order, of buildLocUniverse: tags are
/// multiples of 16 with two even slots each, so a tag or slot perturbed by
/// one is never a member.
HeapLoc universeLoc(size_t I) {
  return HeapLoc{16 * (I / 2 + 1), FieldSlot(2 + 2 * (I % 2))};
}

/// A one-node graph whose heap-location universe holds exactly \p NumLocs
/// locations, universeLoc(0..NumLocs-1). The I-th goes to the writer,
/// reader or ref-child map as I % 3 is 0, 1 or 2.
DepGraph buildLocUniverse(size_t NumLocs) {
  DepGraph G;
  NodeId N = G.getOrCreate(0, 0);
  for (size_t I = 0; I != NumLocs; ++I) {
    LocId Loc = G.internLoc(universeLoc(I));
    if (I % 3 == 0)
      G.noteWriter(Loc, N);
    else if (I % 3 == 1)
      G.noteReader(Loc, N);
    else
      G.noteRefChild(Loc, 16 * (I + 1));
  }
  return G;
}

TEST(FrozenGraphTest, BoundarySizesSealExactly) {
  for (size_t N : {1u, 2u, 3u, 7u, 8u, 9u, 63u, 64u, 65u, 1023u, 1024u,
                   1025u}) {
    DepGraph G = buildSynthetic(N, /*Seed=*/N);
    FrozenGraph F(G);
    expectEquivalent(G, F);
  }
  // Universe sizes on either side of the search's halving steps: every
  // member must resolve to its index and map, every perturbed key must
  // miss.
  for (size_t L : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u, 15u, 16u, 17u, 63u, 64u,
                   65u, 1023u, 1024u, 1025u}) {
    DepGraph G = buildLocUniverse(L);
    FrozenGraph F(G);
    ASSERT_EQ(F.numLocs(), L);
    expectEquivalent(G, F);
    auto Missing = [&](const HeapLoc &Loc) {
      return F.locIndexOf(Loc) == FrozenGraph::npos;
    };
    for (size_t I = 0; I != L; ++I) {
      HeapLoc Loc = universeLoc(I);
      uint32_t At = F.locIndexOf(Loc);
      ASSERT_EQ(At, I) << "L=" << L;
      ASSERT_EQ(!F.writersAt(At).empty(), I % 3 == 0) << "L=" << L;
      ASSERT_EQ(!F.readersAt(At).empty(), I % 3 == 1) << "L=" << L;
      ASSERT_EQ(!F.refChildrenAt(At).empty(), I % 3 == 2) << "L=" << L;
      for (HeapLoc Probe : {HeapLoc{Loc.Tag - 1, Loc.Slot},
                            HeapLoc{Loc.Tag + 1, Loc.Slot},
                            HeapLoc{Loc.Tag, Loc.Slot - 1},
                            HeapLoc{Loc.Tag, Loc.Slot + 1}})
        ASSERT_TRUE(Missing(Probe))
            << "L=" << L << " probe " << Probe.Tag << "/" << Probe.Slot;
    }
    // Below the smallest key, above the largest, and the all-ones tag.
    ASSERT_TRUE(Missing(HeapLoc{0, 0}));
    ASSERT_TRUE(Missing(HeapLoc{16 * (L + 2), 2}));
    ASSERT_TRUE(Missing(HeapLoc{~uint64_t(0), ~FieldSlot(0)}));
  }
}

TEST(FrozenGraphTest, SealMovesAndClearsTheBuildGraph) {
  DepGraph G = buildSynthetic(100, 7);
  DepGraph Copy = buildSynthetic(100, 7);
  FrozenGraph F = FrozenGraph::seal(std::move(G));
  expectEquivalent(Copy, F);
}

TEST(FrozenGraphTest, PaperScaleSealEquivalence) {
  DepGraph G = buildSynthetic(120000, 0xF00D);
  ASSERT_GE(G.numNodes(), 100000u);
  FrozenGraph F(G);
  expectEquivalent(G, F);
}

TEST(FrozenGraphTest, PaperScaleMergeThenSeal) {
  // Two overlapping shards folded build-side, then sealed once: the frozen
  // view must match the merged graph, and merging into an empty graph must
  // reproduce the source numbering (the shard-fold contract).
  DepGraph A = buildSynthetic(70000, 1);
  DepGraph B = buildSynthetic(80000, 2);
  DepGraph Merged;
  std::vector<NodeId> RemapA = Merged.mergeFrom(A);
  for (NodeId N = 0; N != A.numNodes(); ++N)
    ASSERT_EQ(RemapA[N], N);
  std::vector<NodeId> RemapB = Merged.mergeFrom(B);
  ASSERT_GE(Merged.numNodes(), 100000u);

  // Frequencies accumulate across shards.
  for (NodeId N = 0; N != B.numNodes(); ++N) {
    NodeId M = RemapB[N];
    NodeId InA = A.lookup(B.node(N).Instr, B.node(N).Domain);
    uint64_t Expect = B.freq(N) + (InA != kNoNode ? A.freq(InA) : 0);
    ASSERT_EQ(Merged.freq(M), Expect);
  }

  FrozenGraph F(Merged);
  expectEquivalent(Merged, F);
}

TEST(FrozenGraphTest, SealDeduplicatesBeyondTheInsertWindow) {
  // DepGraph::insertUnique only scans a bounded window, so a build-side
  // list can hold duplicates when more than kDedupWindow distinct nodes
  // interleave; the seal must still produce an exact first-occurrence
  // sequence.
  DepGraph G;
  G.setContextSlots(16);
  HeapLoc Loc{99, 1};
  LocId Id = G.internLoc(Loc);
  std::vector<NodeId> Distinct;
  for (InstrId I = 0; I != 12; ++I)
    Distinct.push_back(G.getOrCreate(I, 0));
  for (int Round = 0; Round != 3; ++Round)
    for (NodeId N : Distinct)
      G.noteWriter(Id, N);
  // The window (8) is smaller than the cycle (12): duplicates leak into
  // the build-side list.
  ASSERT_GT(G.record(Id).Writers.size(), Distinct.size());
  FrozenGraph F(G);
  uint32_t I = F.locIndexOf(Loc);
  ASSERT_NE(I, FrozenGraph::npos);
  auto Span = F.writersAt(I);
  ASSERT_EQ(Span.size(), Distinct.size());
  ASSERT_TRUE(std::equal(Span.begin(), Span.end(), Distinct.begin()));
}

TEST(FrozenGraphTest, FootprintCoversEveryColumn) {
  DepGraph G = buildSynthetic(10000, 3);
  FrozenGraph F(G);
  FrozenGraph::MemoryFootprint MF = F.memoryFootprint();
  EXPECT_GT(MF.NodeBytes, 0u);
  EXPECT_GT(MF.EdgeBytes, 0u);
  EXPECT_GT(MF.LocBytes, 0u);
  EXPECT_GT(MF.IndexBytes, 0u);
  EXPECT_EQ(MF.total(),
            MF.NodeBytes + MF.EdgeBytes + MF.LocBytes + MF.IndexBytes);
}

} // namespace
