//===- analysis/DeadValues.cpp - Ultimately-dead value metrics -------------===//

#include "analysis/DeadValues.h"

using namespace lud;

namespace {

/// Marks everything backward-reachable (via In edges) from the seed set.
void backwardMark(const FrozenGraph &G, const std::vector<NodeId> &Seeds,
                  std::vector<bool> &Mark) {
  std::vector<NodeId> Work(Seeds);
  for (NodeId S : Seeds)
    Mark[S] = true;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    for (NodeId P : G.in(N)) {
      if (Mark[P])
        continue;
      Mark[P] = true;
      Work.push_back(P);
    }
  }
}

} // namespace

DeadValueAnalysis lud::computeDeadValues(const FrozenGraph &G,
                                         uint64_t ExecutedInstrs) {
  const size_t N = G.numNodes();
  DeadValueAnalysis Out;
  Out.Dead.assign(N, false);
  Out.PredicateOnly.assign(N, false);

  std::vector<NodeId> Predicates, Natives, DeadSinks;
  for (NodeId I = 0; I != NodeId(N); ++I) {
    switch (G.consumer(I)) {
    case ConsumerKind::Predicate:
      Predicates.push_back(I);
      break;
    case ConsumerKind::Native:
      Natives.push_back(I);
      break;
    case ConsumerKind::None:
      if (G.outDegree(I) == 0)
        DeadSinks.push_back(I); // The set D.
      break;
    }
  }

  std::vector<bool> ReachesPred(N, false), ReachesNative(N, false),
      ReachesDead(N, false);
  backwardMark(G, Predicates, ReachesPred);
  backwardMark(G, Natives, ReachesNative);
  backwardMark(G, DeadSinks, ReachesDead);

  Out.Metrics.TotalInstrInstances = ExecutedInstrs;
  Out.Metrics.TotalNodes = N;
  for (NodeId I = 0; I != NodeId(N); ++I) {
    bool IsConsumer = G.consumer(I) != ConsumerKind::None;
    // D*: leads only to dead sinks, i.e. reaches no consumer at all.
    if (!IsConsumer && !ReachesPred[I] && !ReachesNative[I]) {
      Out.Dead[I] = true;
      ++Out.Metrics.DeadNodes;
      Out.Metrics.DeadFreq += G.freq(I);
      continue;
    }
    // P*: every forward path ends at a predicate — it reaches predicates
    // and can reach neither a native nor a dead sink.
    if (!IsConsumer && ReachesPred[I] && !ReachesNative[I] &&
        !ReachesDead[I]) {
      Out.PredicateOnly[I] = true;
      Out.Metrics.PredOnlyFreq += G.freq(I);
    }
  }
  return Out;
}
