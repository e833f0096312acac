//===- analysis/MultiHop.cpp - Multi-hop relative costs --------------------===//

#include "analysis/MultiHop.h"

#include <vector>

using namespace lud;

namespace {

/// Budgeted closure: from Start, follow In (backward) or Out (forward)
/// edges; entering a boundary node (heap read backward / heap write
/// forward) costs one hop of budget and boundary nodes are counted.
/// Revisits are allowed when they carry a larger remaining budget. The
/// per-node best-budget table is a dense column (budget+1 encoded, 0 =
/// unvisited) so paper-scale traversals skip hashing.
template <typename BoundaryFn, typename VisitFn>
uint64_t budgetedClosure(const FrozenGraph &G, NodeId Start, bool Forward,
                         unsigned Budget, BoundaryFn IsBoundary,
                         VisitFn OnVisit) {
  std::vector<unsigned> BestBudget(G.numNodes(), 0);
  std::vector<std::pair<NodeId, unsigned>> Work;
  BestBudget[Start] = Budget + 1;
  Work.push_back({Start, Budget});
  uint64_t Sum = G.freq(Start);
  OnVisit(Start);

  while (!Work.empty()) {
    auto [N, H] = Work.back();
    Work.pop_back();
    if (BestBudget[N] > H + 1)
      continue; // A better path already processed this node.
    for (NodeId M : Forward ? G.out(N) : G.in(N)) {
      unsigned NextBudget = H;
      if (IsBoundary(M)) {
        if (H == 0)
          continue;
        NextBudget = H - 1;
      }
      if (BestBudget[M] >= NextBudget + 1)
        continue;
      if (BestBudget[M] == 0) {
        Sum += G.freq(M);
        OnVisit(M);
      }
      BestBudget[M] = NextBudget + 1;
      Work.push_back({M, NextBudget});
    }
  }
  return Sum;
}

} // namespace

uint64_t lud::multiHopCost(const FrozenGraph &G, NodeId N, unsigned Hops) {
  unsigned Budget = Hops == 0 ? 0 : Hops - 1;
  return budgetedClosure(
      G, N, /*Forward=*/false, Budget,
      [&G](NodeId M) { return G.readsHeap(M); }, [](NodeId) {});
}

BenefitInfo lud::multiHopBenefit(const FrozenGraph &G, NodeId N,
                                 unsigned Hops) {
  unsigned Budget = Hops == 0 ? 0 : Hops - 1;
  BenefitInfo Info;
  Info.Benefit = budgetedClosure(
      G, N, /*Forward=*/true, Budget,
      [&G](NodeId M) { return G.writesHeap(M); },
      [&G, &Info](NodeId M) {
        ConsumerKind C = G.consumer(M);
        if (C == ConsumerKind::Predicate)
          Info.ReachesPredicate = true;
        else if (C == ConsumerKind::Native)
          Info.ReachesNative = true;
      });
  return Info;
}

LocCostBenefit lud::multiHopLocCostBenefit(const FrozenGraph &G, uint32_t I,
                                           unsigned Hops) {
  LocCostBenefit CB;
  auto Writers = G.writersAt(I);
  if (!Writers.empty()) {
    uint64_t Sum = 0;
    for (NodeId W : Writers)
      Sum += multiHopCost(G, W, Hops);
    CB.NumWriters = Writers.size();
    CB.Rac = double(Sum) / double(CB.NumWriters);
  }
  auto Readers = G.readersAt(I);
  if (!Readers.empty()) {
    uint64_t Sum = 0;
    for (NodeId R : Readers) {
      BenefitInfo B = multiHopBenefit(G, R, Hops);
      Sum += B.Benefit;
      CB.ReachesPredicate |= B.ReachesPredicate;
      CB.ReachesNative |= B.ReachesNative;
    }
    CB.NumReaders = Readers.size();
    CB.Rab = double(Sum) / double(CB.NumReaders);
  }
  return CB;
}
