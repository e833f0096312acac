//===- tests/profiling/DepGraphTest.cpp - Graph container + contexts -------===//

#include "obs/Metrics.h"
#include "profiling/Context.h"
#include "profiling/CopyProfiler.h"
#include "profiling/DepGraph.h"
#include "profiling/FrozenGraph.h"
#include "profiling/NullnessProfiler.h"
#include "profiling/TypestateProfiler.h"
#include "support/RNG.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <vector>

using namespace lud;

namespace {

TEST(DepGraphTest, GetOrCreateIsIdempotent) {
  DepGraph G;
  NodeId A = G.getOrCreate(7, 3);
  NodeId B = G.getOrCreate(7, 3);
  NodeId C = G.getOrCreate(7, 4);
  NodeId D = G.getOrCreate(8, 3);
  EXPECT_EQ(A, B);
  EXPECT_NE(A, C);
  EXPECT_NE(A, D);
  EXPECT_NE(C, D);
  EXPECT_EQ(G.numNodes(), 3u);
  EXPECT_EQ(G.lookup(7, 3), A);
  EXPECT_EQ(G.lookup(7, 99), kNoNode);
}

TEST(DepGraphTest, DomainSentinelsWork) {
  DepGraph G;
  NodeId P = G.getOrCreate(5, kNoDomain);
  EXPECT_EQ(G.lookup(5, kNoDomain), P);
  EXPECT_EQ(G.node(P).Domain, kNoDomain);
}

TEST(DepGraphTest, EdgesAreDeduplicated) {
  DepGraph G;
  NodeId A = G.getOrCreate(1, 0);
  NodeId B = G.getOrCreate(2, 0);
  G.addEdge(A, B);
  G.addEdge(A, B);
  G.addEdge(A, B);
  EXPECT_EQ(G.numEdges(), 1u);
  ASSERT_EQ(FrozenGraph(G).outDegree(A), 1u);
  ASSERT_EQ(FrozenGraph(G).inDegree(B), 1u);
  // Self-edges are dropped (loop-carried dependences collapse).
  G.addEdge(A, A);
  EXPECT_EQ(G.numEdges(), 1u);
  // Reverse direction is a distinct edge.
  G.addEdge(B, A);
  EXPECT_EQ(G.numEdges(), 2u);
}

// hit() with the per-instruction memo armed must build exactly the graph
// the memo-free path builds: same nodes, frequencies, and In/Out lists in
// the same order — including partial hits, where the domain repeats but
// one source changes, and self-edges.
TEST(DepGraphTest, HitMemoIsObservationFree) {
  DepGraph On, Off;
  Off.setHotPathMemo(false);
  On.armMemo(6);
  Off.armMemo(6);
  RNG R(7);
  std::vector<NodeId> Last(6, kNoNode);
  for (int Step = 0; Step != 4000; ++Step) {
    InstrId I = InstrId(R.nextBelow(6));
    uint32_t D = R.nextBelow(3) == 0 ? kNoDomain : uint32_t(R.nextBelow(2));
    auto Src = [&] {
      return R.nextBelow(4) == 0 ? kNoNode : Last[R.nextBelow(6)];
    };
    NodeId A = Src(), B = Src();
    NodeId N = On.hit(I, D, A, B);
    ASSERT_EQ(Off.hit(I, D, A, B), N);
    Last[I] = N;
  }
  ASSERT_EQ(On.numNodes(), Off.numNodes());
  EXPECT_EQ(On.numEdges(), Off.numEdges());
  EXPECT_GT(On.numEdges(), 0u);
  EXPECT_GT(On.memoBytes(), 0u);
  EXPECT_EQ(Off.memoBytes(), 0u);
  const FrozenGraph FOn(On), FOff(Off);
  for (NodeId N = 0; N != NodeId(On.numNodes()); ++N) {
    EXPECT_EQ(On.freq(N), Off.freq(N));
    EXPECT_TRUE(std::ranges::equal(FOn.in(N), FOff.in(N))) << "node " << N;
    EXPECT_TRUE(std::ranges::equal(FOn.out(N), FOff.out(N))) << "node " << N;
  }
}

// A sealed graph's in- and out-lists keep first-insertion order. A merge
// replays the other graph's edges by source id, each source's in its
// insertion order, after the edges the target already has: the merged
// in-lists follow the sources' ids, not the order in which the other
// graph first saw the edges.
TEST(DepGraphTest, SealedAdjacencyKeepsInsertionOrder) {
  using Ids = std::vector<NodeId>;
  auto Seq = [](std::span<const NodeId> S) { return Ids(S.begin(), S.end()); };
  DepGraph O;
  NodeId A = O.getOrCreate(1, 0), B = O.getOrCreate(2, 0);
  NodeId C = O.getOrCreate(3, 0), D = O.getOrCreate(4, 0);
  O.addEdge(C, D);
  O.addEdge(A, D);
  O.addEdge(B, D);
  O.addEdge(A, C);
  O.addEdge(C, D); // A duplicate moves nothing.
  const FrozenGraph FO(O);
  EXPECT_EQ(Seq(FO.in(D)), (Ids{C, A, B}));
  EXPECT_EQ(Seq(FO.out(A)), (Ids{D, C}));
  EXPECT_EQ(Seq(FO.in(C)), (Ids{A}));

  // Into an empty graph the numbering is O's, and D's in-list is by
  // source id.
  DepGraph Empty;
  Empty.mergeFrom(O);
  const FrozenGraph FE(Empty);
  EXPECT_EQ(Seq(FE.in(D)), (Ids{A, B, C}));
  EXPECT_EQ(Seq(FE.out(A)), (Ids{D, C}));
  EXPECT_EQ(Seq(FE.out(C)), (Ids{D}));

  // Into a graph that already has B -> D, under another numbering.
  DepGraph T;
  NodeId TB = T.getOrCreate(2, 0), TD = T.getOrCreate(4, 0);
  T.addEdge(TB, TD);
  std::vector<NodeId> Remap = T.mergeFrom(O);
  const FrozenGraph FT(T);
  EXPECT_EQ(Seq(FT.in(TD)), (Ids{TB, Remap[A], Remap[C]}));
  EXPECT_EQ(Seq(FT.out(Remap[A])), (Ids{TD, Remap[C]}));
  EXPECT_EQ(Seq(FT.out(TB)), (Ids{TD}));
}

TEST(DepGraphTest, RefEdgesSeparateFromDataEdges) {
  DepGraph G;
  NodeId S = G.getOrCreate(1, 0);
  NodeId A = G.getOrCreate(2, 0);
  G.addRefEdge(S, A);
  G.addRefEdge(S, A);
  EXPECT_EQ(G.numRefEdges(), 1u);
  EXPECT_EQ(G.numEdges(), 0u);
  EXPECT_EQ(FrozenGraph(G).outDegree(S), 0u);
}

TEST(DepGraphTest, LocationMapsDeduplicate) {
  DepGraph G;
  NodeId W = G.getOrCreate(1, 0);
  HeapLoc L{42, 3};
  G.noteWriter(L, W);
  G.noteWriter(L, W);
  ASSERT_EQ(G.writers().count(L), 1u);
  EXPECT_EQ(G.writers().at(L).size(), 1u);
  G.noteRefChild(L, 99);
  G.noteRefChild(L, 99);
  EXPECT_EQ(G.refChildren().at(L).size(), 1u);
}

TEST(DepGraphTest, TagCodecRoundTrips) {
  DepGraph G;
  G.setContextSlots(16);
  for (AllocSiteId Site : {0u, 1u, 17u, 9999u}) {
    for (uint32_t Slot : {0u, 7u, 15u}) {
      uint64_t Tag = DepGraph::makeTag(Site, Slot, G.contextSlots());
      EXPECT_EQ(G.tagSite(Tag), Site);
      EXPECT_EQ(G.tagSlot(Tag), Slot);
      EXPECT_FALSE(DepGraph::isStaticTag(Tag));
    }
  }
  uint64_t S = DepGraph::makeStaticTag(5);
  EXPECT_TRUE(DepGraph::isStaticTag(S));
}

TEST(DepGraphTest, MemoryFootprintGrowsWithContent) {
  DepGraph G;
  size_t Empty = G.memoryFootprint().total();
  for (InstrId I = 0; I != 100; ++I)
    G.getOrCreate(I, 0);
  for (NodeId N = 1; N != 100; ++N)
    G.addEdge(N - 1, N);
  size_t Full = G.memoryFootprint().total();
  EXPECT_GT(Full, Empty);
  DepGraph::MemoryFootprint F = G.memoryFootprint();
  EXPECT_EQ(F.total(),
            F.NodeBytes + F.EdgeBytes + F.LocMapBytes + F.InternBytes);
  EXPECT_GT(F.NodeBytes, 0u);
  EXPECT_GT(F.EdgeBytes, 0u);
  EXPECT_GT(F.InternBytes, 0u);
}

TEST(DepGraphTest, GraphGaugesCountEachTableOnce) {
  // The mem.gcost.* lines partition the substrate graph's footprint, and a
  // client's graph_bytes is its graph plus its memo: an interning table
  // counted in two lines would overstate both.
  Workload W = buildWorkload("chart", 40);
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  ProfileSession S(Cfg);
  ASSERT_EQ(S.run(*W.M).Run.Status, RunStatus::Finished);
  obs::MetricsRegistry R;
  S.slicing()->accountStats(R);
  S.copy()->accountStats(R);
  S.nullness()->accountStats(R);
  S.typestate()->accountStats(R);
  auto Gauge = [&](const char *Name) {
    obs::MetricId Id = R.find(Name);
    EXPECT_NE(Id, obs::kNoMetric) << Name;
    return Id == obs::kNoMetric ? 0 : R.value(Id);
  };

  const DepGraph &Sub = S.slicing()->graph();
  EXPECT_GT(Gauge("mem.gcost.intern_bytes"), 0u);
  EXPECT_EQ(Gauge("mem.gcost.node_bytes") + Gauge("mem.gcost.edge_bytes") +
                Gauge("mem.gcost.locmap_bytes") +
                Gauge("mem.gcost.intern_bytes"),
            Sub.memoryFootprint().total());

  auto ClientBytes = [](const DepGraph &G) {
    return G.memoryFootprint().total() + G.memoBytes();
  };
  EXPECT_EQ(Gauge("mem.copy.graph_bytes"), ClientBytes(S.copy()->graph()));
  EXPECT_EQ(Gauge("mem.nullness.graph_bytes"),
            ClientBytes(S.nullness()->graph()));
  EXPECT_EQ(Gauge("mem.typestate.graph_bytes"),
            ClientBytes(S.typestate()->graph()));
}

TEST(ContextEncoderTest, ChainsEncodeIncrementally) {
  ContextEncoder C(16);
  C.reset();
  EXPECT_EQ(C.current(), 0u);
  EXPECT_EQ(C.depth(), 1u);
  C.pushCall(/*ExtendsChain=*/true, /*ReceiverSite=*/4);
  // g = 3*0 + (4+1) = 5.
  EXPECT_EQ(C.current(), 5u);
  C.pushCall(true, 2);
  // g = 3*5 + 3 = 18.
  EXPECT_EQ(C.current(), 18u);
  EXPECT_EQ(C.slot(), 18u % 16);
  C.popCall();
  EXPECT_EQ(C.current(), 5u);
  C.popCall();
  EXPECT_EQ(C.current(), 0u);
}

TEST(ContextEncoderTest, StaticCallsKeepChain) {
  ContextEncoder C(8);
  C.reset();
  C.pushCall(true, 1);
  uint64_t G1 = C.current();
  C.pushCall(/*ExtendsChain=*/false, 7);
  EXPECT_EQ(C.current(), G1);
  C.popCall();
  EXPECT_EQ(C.current(), G1);
}

TEST(ContextEncoderTest, EncodingIsProbabilistic) {
  // The Bond-McKinley recurrence g = 3g + o is *probabilistically* unique:
  // dense small site ids do collide (3a + b = 3a' + b'), which is exactly
  // what the CR metric measures. Check that a healthy majority of two-deep
  // chains stay distinct, and that every chain value is deterministic.
  ContextEncoder C(1 << 16);
  C.reset();
  std::vector<uint64_t> Values;
  for (AllocSiteId A = 0; A != 8; ++A) {
    C.pushCall(true, A);
    for (AllocSiteId B = 0; B != 8; ++B) {
      C.pushCall(true, B);
      Values.push_back(C.current());
      C.popCall();
    }
    C.popCall();
  }
  std::vector<uint64_t> Sorted = Values;
  std::sort(Sorted.begin(), Sorted.end());
  size_t Distinct =
      std::unique(Sorted.begin(), Sorted.end()) - Sorted.begin();
  // 3a + b over a,b in [0,8) yields 29 distinct values of 64 chains.
  EXPECT_GE(Distinct, 25u);
  // Determinism: re-encoding yields the same sequence.
  ContextEncoder C2(1 << 16);
  C2.reset();
  size_t Idx = 0;
  for (AllocSiteId A = 0; A != 8; ++A) {
    C2.pushCall(true, A);
    for (AllocSiteId B = 0; B != 8; ++B) {
      C2.pushCall(true, B);
      EXPECT_EQ(C2.current(), Values[Idx++]);
      C2.popCall();
    }
    C2.popCall();
  }
}

TEST(ContextEncoderTest, SiteZeroDistinctFromEmptyChain) {
  // The +1 offset keeps chain [site 0] distinguishable from the empty
  // chain.
  ContextEncoder C(8);
  C.reset();
  uint64_t Empty = C.current();
  C.pushCall(true, 0);
  EXPECT_NE(C.current(), Empty);
}

} // namespace
