//===- tests/profiling/MergeEquivalenceTest.cpp - Merge + cache paths ------===//
//
// The two equivalence contracts the hot-path overhaul rests on:
//
//  * Merging: one profiler observing runs back to back, a fold of
//    single-run profilers via SlicingProfiler::mergeFrom, and the sharded
//    parallel driver at any thread count all produce the same profile.
//
//  * Caching: SlicingConfig::HotPathCaches toggles the memo caches only —
//    the graph, frequencies, predicate outcomes and CR are identical with
//    the caches on and off.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "support/ForEachJob.h"
#include "workloads/DaCapo.h"
#include "workloads/ParallelDriver.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

using namespace lud;
using namespace lud::test;

namespace {

/// Structural equality of two dependence graphs, node ids included (the
/// merge contract is numbering-exact, not just isomorphism).
void expectGraphsEqual(const DepGraph &A, const DepGraph &B) {
  ASSERT_EQ(A.numNodes(), B.numNodes());
  ASSERT_EQ(A.numEdges(), B.numEdges());
  ASSERT_EQ(A.numRefEdges(), B.numRefEdges());
  EXPECT_EQ(A.totalFreq(), B.totalFreq());
  const FrozenGraph FA(A), FB(B);
  for (NodeId N = 0; N != NodeId(A.numNodes()); ++N) {
    const DepGraph::Node &X = A.node(N);
    const DepGraph::Node &Y = B.node(N);
    ASSERT_EQ(X.Instr, Y.Instr) << "node " << N;
    ASSERT_EQ(X.Domain, Y.Domain) << "node " << N;
    EXPECT_EQ(A.freq(N), B.freq(N)) << "node " << N;
    EXPECT_EQ(X.ReadsHeap, Y.ReadsHeap);
    EXPECT_EQ(X.WritesHeap, Y.WritesHeap);
    EXPECT_EQ(X.IsAlloc, Y.IsAlloc);
    EXPECT_EQ(X.StoredRef, Y.StoredRef);
    EXPECT_EQ(X.Consumer, Y.Consumer);
    EXPECT_EQ(X.Effect, Y.Effect);
    std::vector<NodeId> XOut(FA.out(N).begin(), FA.out(N).end()),
        YOut(FB.out(N).begin(), FB.out(N).end());
    std::sort(XOut.begin(), XOut.end());
    std::sort(YOut.begin(), YOut.end());
    EXPECT_EQ(XOut, YOut) << "out-edges of node " << N;
  }
}

/// One list of every location record that has it, as a sorted ordinary
/// map, for order-free comparison across LocId numberings.
template <typename ListT>
std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>>
normalized(const DepGraph &G, ListT DepGraph::LocRecord::*List) {
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>> Out;
  for (const DepGraph::LocRecord &R : G.records()) {
    const ListT &Vals = R.*List;
    if (Vals.empty())
      continue;
    std::vector<uint64_t> V(Vals.begin(), Vals.end());
    std::sort(V.begin(), V.end());
    Out[{R.Loc.Tag, R.Loc.Slot}] = std::move(V);
  }
  return Out;
}

std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>>
normalizedActivity(const SlicingProfiler &P) {
  std::map<std::pair<uint64_t, uint64_t>, std::vector<uint64_t>> Out;
  for (const DepGraph::LocRecord &R : P.graph().records()) {
    const LocationActivity &Act = R.Activity;
    if (Act.Writes != 0 || Act.Reads != 0)
      Out[{R.Loc.Tag, R.Loc.Slot}] = {Act.Writes, Act.Reads, Act.Overwrites};
  }
  return Out;
}

void expectProfilesEqual(const SlicingProfiler &A, const SlicingProfiler &B) {
  expectGraphsEqual(A.graph(), B.graph());
  using R = DepGraph::LocRecord;
  EXPECT_EQ(normalized(A.graph(), &R::Writers),
            normalized(B.graph(), &R::Writers));
  EXPECT_EQ(normalized(A.graph(), &R::Readers),
            normalized(B.graph(), &R::Readers));
  EXPECT_EQ(normalized(A.graph(), &R::RefChildren),
            normalized(B.graph(), &R::RefChildren));

  std::map<uint64_t, NodeId> AllocA, AllocB;
  for (const auto &[Tag, N] : A.graph().allocNodes())
    AllocA[Tag] = N;
  for (const auto &[Tag, N] : B.graph().allocNodes())
    AllocB[Tag] = N;
  EXPECT_EQ(AllocA, AllocB);

  auto Preds = [](const SlicingProfiler &P) {
    std::map<NodeId, std::pair<uint64_t, uint64_t>> Out;
    const auto &Outcomes = P.predicateOutcomes();
    for (NodeId N = 0; N != NodeId(Outcomes.size()); ++N)
      if (Outcomes[N].TakenCount != 0 || Outcomes[N].NotTakenCount != 0)
        Out[N] = {Outcomes[N].TakenCount, Outcomes[N].NotTakenCount};
    return Out;
  };
  EXPECT_EQ(Preds(A), Preds(B));

  EXPECT_EQ(normalizedActivity(A), normalizedActivity(B));
  EXPECT_EQ(A.distinctContexts(), B.distinctContexts());
  EXPECT_DOUBLE_EQ(A.averageCR(), B.averageCR());
}

TEST(MergeEquivalenceTest, ProfilerMergeMatchesSequentialReuse) {
  Workload W = buildWorkload("eclipse", 60);

  // Reference: one profiler accumulating two back-to-back runs.
  SlicingProfiler Seq{SlicingConfig{}};
  runModule(*W.M, Seq);
  runModule(*W.M, Seq);

  // Fold of two single-run profilers.
  SlicingProfiler A{SlicingConfig{}};
  SlicingProfiler B{SlicingConfig{}};
  runModule(*W.M, A);
  runModule(*W.M, B);
  A.mergeFrom(B);

  expectProfilesEqual(A, Seq);
}

TEST(MergeEquivalenceTest, ShardedDriverMatchesAnyThreadCount) {
  Workload W = buildWorkload("derby", 60);
  const unsigned Shards = 5;

  SessionConfig Cfg = SessionConfig::profiled();
  ShardedSession Ref = runShardedSession(*W.M, Shards, Cfg, /*Threads=*/1);
  ShardedSession Par = runShardedSession(*W.M, Shards, Cfg, /*Threads=*/3);
  ASSERT_TRUE(Ref.Session && Par.Session);

  EXPECT_EQ(Ref.TotalInstrs, Par.TotalInstrs);
  EXPECT_EQ(Ref.Run.ExecutedInstrs, Par.Run.ExecutedInstrs);
  expectProfilesEqual(*Par.Session->slicing(), *Ref.Session->slicing());

  // And the fold equals one profiler observing the shards sequentially.
  SlicingProfiler Seq{SlicingConfig{}};
  for (unsigned S = 0; S != Shards; ++S)
    runModule(*W.M, Seq);
  expectProfilesEqual(*Ref.Session->slicing(), Seq);
}

TEST(MergeEquivalenceTest, ParallelBatchMatchesSequential) {
  // Sessions over distinct modules share no state: profiling a batch on
  // the pool gives each module the profile it gets on its own.
  std::vector<Workload> Ws;
  for (const char *Name : {"antlr", "chart", "hsqldb", "xalan"})
    Ws.push_back(buildWorkload(Name, 60));
  auto Batch = [&](unsigned Threads) {
    std::vector<ProfiledRun> Runs(Ws.size());
    forEachJob(unsigned(Ws.size()), Threads, [&](unsigned J) {
      Runs[J] = profiledRun(*Ws[J].M);
    });
    return Runs;
  };
  std::vector<ProfiledRun> Ref = Batch(1);
  std::vector<ProfiledRun> Par = Batch(3);
  for (size_t I = 0; I != Ref.size(); ++I) {
    EXPECT_EQ(Ref[I].Run.ExecutedInstrs, Par[I].Run.ExecutedInstrs);
    expectProfilesEqual(*Par[I].Prof, *Ref[I].Prof);
  }
}

TEST(MergeEquivalenceTest, HotPathCachesAreObservationFree) {
  // The regression guard for the memo caches: identical profiles with the
  // caches on (default) and off (reference path), on workloads covering
  // loads/stores, arrays, predicates and deep call chains.
  for (const char *Name : {"eclipse", "luindex", "pmd"}) {
    Workload W = buildWorkload(Name, 80);
    SlicingConfig On;
    On.HotPathCaches = true;
    SlicingConfig Off;
    Off.HotPathCaches = false;
    RunResult ROn, ROff;
    SlicingProfiler POn = profileRun(*W.M, On, &ROn);
    SlicingProfiler POff = profileRun(*W.M, Off, &ROff);
    EXPECT_EQ(ROn.ExecutedInstrs, ROff.ExecutedInstrs) << Name;
    EXPECT_EQ(POn.graph().numNodes(), POff.graph().numNodes()) << Name;
    EXPECT_EQ(POn.graph().numEdges(), POff.graph().numEdges()) << Name;
    EXPECT_EQ(POn.graph().totalFreq(), POff.graph().totalFreq()) << Name;
    EXPECT_DOUBLE_EQ(POn.averageCR(), POff.averageCR()) << Name;
    expectProfilesEqual(POn, POff);
  }
}

} // namespace

