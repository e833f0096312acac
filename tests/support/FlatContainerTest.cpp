//===- tests/support/FlatContainerTest.cpp - FlatMap/FlatSet ---------------===//
//
// The open-addressing tables under the profiler hot path: interning
// semantics, growth across rehashes, the reserved-key side slot, the
// raw-slot memo API's generation contract, and DepGraph::mergeFrom
// reproducing a sequentially built graph.
//
//===----------------------------------------------------------------------===//

#include "profiling/DepGraph.h"
#include "profiling/FrozenGraph.h"
#include "support/FlatMap.h"
#include "support/FlatSet.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <set>
#include <vector>

using namespace lud;

namespace {

TEST(FlatMapTest, InsertFindAndGrowth) {
  FlatMap<uint64_t, int> M;
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.count(7), 0u);

  // Enough keys to force several rehashes past the initial 8 slots.
  constexpr uint64_t N = 5000;
  for (uint64_t K = 0; K != N; ++K) {
    auto [V, Fresh] = M.insert(K * 3, int(K));
    EXPECT_TRUE(Fresh);
    EXPECT_EQ(V, int(K));
  }
  EXPECT_EQ(M.size(), size_t(N));
  for (uint64_t K = 0; K != N; ++K) {
    EXPECT_EQ(M.count(K * 3), 1u);
    EXPECT_EQ(M.at(K * 3), int(K));
  }
  EXPECT_EQ(M.count(1), 0u);
  EXPECT_EQ(M.find(1), M.end());

  // Re-insert returns the existing mapping untouched.
  auto [V, Fresh] = M.insert(0, 999);
  EXPECT_FALSE(Fresh);
  EXPECT_EQ(V, 0);

  // operator[] default-constructs on first touch.
  FlatMap<uint64_t, int> D;
  D[5] += 2;
  D[5] += 3;
  EXPECT_EQ(D.at(5), 5);
}

TEST(FlatMapTest, IterationCoversEveryEntryOnce) {
  FlatMap<uint64_t, uint64_t> M;
  std::map<uint64_t, uint64_t> Ref;
  for (uint64_t K = 1; K <= 300; ++K) {
    M.insert(K * K, K);
    Ref[K * K] = K;
  }
  std::map<uint64_t, uint64_t> Seen;
  for (const auto &[K, V] : M)
    EXPECT_TRUE(Seen.emplace(K, V).second) << "duplicate key " << K;
  EXPECT_EQ(Seen, Ref);
}

TEST(FlatMapTest, ReservedEmptyKeyUsesSideSlot) {
  const uint64_t Sentinel = ~uint64_t(0);
  FlatMap<uint64_t, int> M;
  EXPECT_EQ(M.count(Sentinel), 0u);
  auto [V1, Fresh1] = M.insert(Sentinel, 42);
  EXPECT_TRUE(Fresh1);
  EXPECT_EQ(V1, 42);
  auto [V2, Fresh2] = M.insert(Sentinel, 7);
  EXPECT_FALSE(Fresh2);
  EXPECT_EQ(V2, 42);
  EXPECT_EQ(M.size(), 1u);
  EXPECT_EQ(M.at(Sentinel), 42);

  // The side slot shows up exactly once in iteration, alongside normal
  // keys, and survives rehashes.
  for (uint64_t K = 0; K != 100; ++K)
    M.insert(K);
  size_t SentinelSeen = 0;
  size_t Total = 0;
  for (const auto &[K, V] : M) {
    ++Total;
    if (K == Sentinel) {
      ++SentinelSeen;
      EXPECT_EQ(V, 42);
    }
  }
  EXPECT_EQ(SentinelSeen, 1u);
  EXPECT_EQ(Total, 101u);
}

TEST(FlatMapTest, RawSlotMemoFollowsGenerations) {
  FlatMap<uint64_t, int> M;
  auto [Slot, Fresh] = M.insertSlot(11, 1);
  EXPECT_TRUE(Fresh);
  uint64_t Gen = M.generation();
  M.valueAt(Slot) += 5;
  EXPECT_EQ(M.at(11), 6);

  // Within one generation the slot index stays valid across other
  // inserts; a rehash bumps the generation, after which the memoized
  // index must be refreshed via insertSlot.
  size_t Inserted = 0;
  while (M.generation() == Gen) {
    M.insert(100 + Inserted);
    ++Inserted;
  }
  EXPECT_GT(M.generation(), Gen);
  auto [NewSlot, Fresh2] = M.insertSlot(11);
  EXPECT_FALSE(Fresh2);
  EXPECT_EQ(M.valueAt(NewSlot), 6);

  // clear() also bumps the generation and empties the table.
  uint64_t Gen2 = M.generation();
  M.clear();
  EXPECT_GT(M.generation(), Gen2);
  EXPECT_TRUE(M.empty());
  EXPECT_EQ(M.count(11), 0u);
}

TEST(FlatMapTest, ReservePreventsRehash) {
  FlatMap<uint64_t, int> M;
  M.reserve(1000);
  uint64_t Gen = M.generation();
  for (uint64_t K = 0; K != 1000; ++K)
    M.insert(K);
  EXPECT_EQ(M.generation(), Gen);
  EXPECT_EQ(M.size(), 1000u);
}

TEST(FlatSetTest, InsertContainsAndGrowth) {
  FlatSet<uint64_t> S;
  EXPECT_TRUE(S.empty());
  constexpr uint64_t N = 5000;
  for (uint64_t K = 0; K != N; ++K)
    EXPECT_TRUE(S.insert(K * 7 + 1));
  for (uint64_t K = 0; K != N; ++K) {
    EXPECT_FALSE(S.insert(K * 7 + 1));
    EXPECT_TRUE(S.contains(K * 7 + 1));
  }
  EXPECT_EQ(S.size(), size_t(N));
  EXPECT_FALSE(S.contains(0));

  std::set<uint64_t> Seen;
  for (uint64_t K : S)
    EXPECT_TRUE(Seen.insert(K).second);
  EXPECT_EQ(Seen.size(), size_t(N));

  EXPECT_GT(S.memoryBytes(), 0u);
  S.clear();
  EXPECT_TRUE(S.empty());
  EXPECT_FALSE(S.contains(8));
}

TEST(FlatSetTest, ReservedEmptyKeyInsertable) {
  const uint64_t Sentinel = ~uint64_t(0);
  FlatSet<uint64_t> S;
  EXPECT_FALSE(S.contains(Sentinel));
  EXPECT_TRUE(S.insert(Sentinel));
  EXPECT_FALSE(S.insert(Sentinel));
  EXPECT_TRUE(S.contains(Sentinel));
  EXPECT_EQ(S.size(), 1u);
  S.insert(3);
  size_t SentinelSeen = 0;
  for (uint64_t K : S)
    SentinelSeen += (K == Sentinel);
  EXPECT_EQ(SentinelSeen, 1u);
}

/// Builds one of two fragments of a small graph; Which selects the halves
/// so the sequential reference interleaves both.
void buildFragment(DepGraph &G, int Which) {
  // Nodes keyed (Instr, Domain); edges and per-location maps exercise
  // every merged side table.
  const uint64_t Tag5 = DepGraph::makeTag(5, 0, G.contextSlots());
  const uint64_t Tag9 = DepGraph::makeTag(9, 1, G.contextSlots());
  if (Which == 0 || Which == 2) {
    NodeId A = G.getOrCreate(1, 0);
    NodeId B = G.getOrCreate(2, 0);
    G.freq(A) += 3;
    G.freq(B) += 1;
    G.node(A).WritesHeap = true;
    G.addEdge(A, B);
    G.noteAlloc(Tag5, A);
    G.noteWriter(HeapLoc{Tag5, 2}, A);
    G.addRefEdge(B, A);
  }
  if (Which == 1 || Which == 2) {
    NodeId B = G.getOrCreate(2, 0);
    NodeId C = G.getOrCreate(3, 1);
    G.freq(B) += 2;
    G.freq(C) += 5;
    G.node(C).ReadsHeap = true;
    G.addEdge(B, C);
    G.addEdge(G.getOrCreate(1, 0), C);
    G.noteReader(HeapLoc{Tag5, 2}, C);
    G.noteRefChild(HeapLoc{Tag5, 2}, Tag9);
  }
}

TEST(DepGraphMergeTest, MergeEqualsSequentialBuild) {
  DepGraph Seq;
  Seq.setContextSlots(8);
  buildFragment(Seq, 2);

  DepGraph G1, G2;
  G1.setContextSlots(8);
  G2.setContextSlots(8);
  buildFragment(G1, 0);
  buildFragment(G2, 1);
  std::vector<NodeId> Remap = G1.mergeFrom(G2);

  ASSERT_EQ(G1.numNodes(), Seq.numNodes());
  ASSERT_EQ(G1.numEdges(), Seq.numEdges());
  ASSERT_EQ(G1.numRefEdges(), Seq.numRefEdges());
  const FrozenGraph F1(G1), FSeq(Seq);
  for (NodeId N = 0; N != NodeId(Seq.numNodes()); ++N) {
    const DepGraph::Node &A = G1.node(N);
    const DepGraph::Node &B = Seq.node(N);
    EXPECT_EQ(A.Instr, B.Instr);
    EXPECT_EQ(A.Domain, B.Domain);
    EXPECT_EQ(G1.freq(N), Seq.freq(N));
    EXPECT_EQ(A.ReadsHeap, B.ReadsHeap);
    EXPECT_EQ(A.WritesHeap, B.WritesHeap);
    std::vector<NodeId> AOut(F1.out(N).begin(), F1.out(N).end()),
        BOut(FSeq.out(N).begin(), FSeq.out(N).end());
    std::sort(AOut.begin(), AOut.end());
    std::sort(BOut.begin(), BOut.end());
    EXPECT_EQ(AOut, BOut);
  }
  // Remap sends G2's ids to the merged graph's interning of the same
  // (Instr, Domain) keys.
  for (NodeId N = 0; N != NodeId(G2.numNodes()); ++N) {
    const DepGraph::Node &Src = G2.node(N);
    EXPECT_EQ(Remap[N], G1.lookup(Src.Instr, Src.Domain));
  }
  EXPECT_EQ(G1.totalFreq(), Seq.totalFreq());

  // Merging into an empty graph reproduces the source's numbering.
  DepGraph Fresh;
  Fresh.mergeFrom(Seq);
  ASSERT_EQ(Fresh.numNodes(), Seq.numNodes());
  for (NodeId N = 0; N != NodeId(Seq.numNodes()); ++N) {
    EXPECT_EQ(Fresh.node(N).Instr, Seq.node(N).Instr);
    EXPECT_EQ(Fresh.node(N).Domain, Seq.node(N).Domain);
    EXPECT_EQ(Fresh.freq(N), Seq.freq(N));
  }
}

TEST(FlatMapTest, CapacityForHoldsLoadFactorWithoutOverflow) {
  using M = FlatMap<uint64_t, int>;
  // 3/4 load: 8 slots hold 6 keys, 16 hold 12, 32 hold 24.
  EXPECT_EQ(M::capacityFor(0), 8u);
  EXPECT_EQ(M::capacityFor(6), 8u);
  EXPECT_EQ(M::capacityFor(7), 16u);
  EXPECT_EQ(M::capacityFor(12), 16u);
  EXPECT_EQ(M::capacityFor(13), 32u);

  // The old `Cap * 3 < N * 4` phrasing wrapped for N > SIZE_MAX / 4 and
  // reported the minimum capacity, silently under-reserving. The
  // overflow-free form keeps growing to the largest power of two.
  size_t Huge = SIZE_MAX / 4 + 1;
  size_t Cap = M::capacityFor(Huge);
  EXPECT_EQ(Cap, size_t(1) << (sizeof(size_t) * 8 - 1));
  EXPECT_GE(Cap - Cap / 4, Huge);
  // And it terminates even when no capacity can satisfy the request.
  EXPECT_EQ(M::capacityFor(SIZE_MAX), size_t(1) << (sizeof(size_t) * 8 - 1));
}

TEST(FlatMapTest, ReserveAvoidsRehashUpToTheReservedCount) {
  FlatMap<uint64_t, int> M;
  M.reserve(100);
  uint64_t Gen = M.generation();
  for (uint64_t K = 0; K != 100; ++K)
    M.insert(K + 1, int(K));
  EXPECT_EQ(M.generation(), Gen) << "reserve(100) did not pre-size for 100";
  EXPECT_EQ(M.size(), 100u);
}

TEST(FlatSetTest, GrowthAcrossLoadFactorBoundariesKeepsAllKeys) {
  // Walk insert counts across several grow boundaries (6, 12, 24, ...)
  // and verify membership stays exact through each rehash.
  FlatSet<uint64_t> S;
  S.reserve(5);
  for (uint64_t K = 0; K != 200; ++K) {
    EXPECT_TRUE(S.insert(K * 11 + 1));
    EXPECT_FALSE(S.insert(K * 11 + 1));
    for (uint64_t J = 0; J <= K; ++J)
      ASSERT_TRUE(S.contains(J * 11 + 1)) << "lost key after insert " << K;
    EXPECT_FALSE(S.contains(K * 11 + 2));
  }
  EXPECT_EQ(S.size(), 200u);
}

} // namespace
