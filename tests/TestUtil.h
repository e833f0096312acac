//===- tests/TestUtil.h - Shared test helpers ------------------*- C++ -*-===//

#ifndef LUD_TESTS_TESTUTIL_H
#define LUD_TESTS_TESTUTIL_H

#include "profiling/FrozenGraph.h"
#include "profiling/SlicingProfiler.h"
#include "runtime/Interpreter.h"
#include "support/CoreBudget.h"
#include "workloads/Driver.h"

#include <vector>

namespace lud {
namespace test {

/// Uninstrumented run through the session lifecycle — the spelling of the
/// retired runBaseline() free function.
inline TimedRun baselineRun(const Module &M, RunConfig RC = {}) {
  ProfileSession S(SessionConfig::baseline(RC));
  return S.run(M);
}

/// Substrate-only profiled run through the session lifecycle — the
/// spelling of the retired runProfiled() free function.
inline ProfiledRun profiledRun(const Module &M, SlicingConfig SCfg = {},
                               RunConfig RC = {}) {
  ProfileSession S(SessionConfig::profiled(SCfg, RC));
  TimedRun T = S.run(M);
  ProfiledRun Out;
  Out.Run = T.Run;
  Out.Seconds = T.Seconds;
  Out.Prof = S.takeSlicing();
  return Out;
}

/// Runs \p M under a SlicingProfiler and returns the profiler (plus the run
/// result through \p ResOut when non-null).
inline SlicingProfiler profileRun(const Module &M, SlicingConfig Cfg = {},
                                  RunResult *ResOut = nullptr,
                                  RunConfig RCfg = {}) {
  SlicingProfiler P(Cfg);
  RunResult R = runModule(M, P, RCfg);
  if (ResOut)
    *ResOut = R;
  return P;
}

/// All graph nodes whose instruction is \p I.
inline std::vector<NodeId> nodesFor(const DepGraph &G, InstrId I) {
  std::vector<NodeId> Out;
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N)
    if (G.node(N).Instr == I)
      Out.push_back(N);
  return Out;
}

inline std::vector<NodeId> nodesFor(const FrozenGraph &G, InstrId I) {
  std::vector<NodeId> Out;
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N)
    if (G.instr(N) == I)
      Out.push_back(N);
  return Out;
}

/// The unique node for instruction \p I; fails the test context if the
/// instruction has zero or multiple nodes.
inline NodeId soleNodeFor(const DepGraph &G, InstrId I) {
  std::vector<NodeId> All = nodesFor(G, I);
  return All.size() == 1 ? All[0] : kNoNode;
}

inline NodeId soleNodeFor(const FrozenGraph &G, InstrId I) {
  std::vector<NodeId> All = nodesFor(G, I);
  return All.size() == 1 ? All[0] : kNoNode;
}

/// True if the graph has a def-use edge From -> To.
inline bool hasEdge(const FrozenGraph &G, NodeId From, NodeId To) {
  for (NodeId N : G.out(From))
    if (N == To)
      return true;
  return false;
}

/// Where a session places its client executions (CoreBudget::clientThreads):
/// two executions on threads of their own, one on one thread, or one on
/// the session's thread after the substrate.
enum class Placement { Split, OneThread, Inline };

inline const char *placementName(Placement P) {
  switch (P) {
  case Placement::Split:
    return "split";
  case Placement::OneThread:
    return "one thread";
  case Placement::Inline:
    return "inline";
  }
  return "?";
}

inline constexpr Placement kPlacements[] = {
    Placement::Split, Placement::OneThread, Placement::Inline};

/// The core count PlaceClients pretends the process has: enough for every
/// placement, whatever the machine running the tests has.
inline constexpr unsigned kPlacementCores = 4;

/// Makes the process a kPlacementCores-core one for its lifetime
/// (CoreBudget::Override) and holds the cores a caller's other threads
/// would hold for a session run meanwhile on this thread (which holds one
/// more) to place its clients as \p P says: none for a split, all but two
/// for one thread, all but one for inline.
struct PlaceClients {
  explicit PlaceClients(Placement P)
      : Budget(kPlacementCores),
        Others(CoreBudget::process().hold(P == Placement::Split ? 0
                                          : P == Placement::OneThread
                                              ? kPlacementCores - 2
                                              : kPlacementCores - 1)) {}
  CoreBudget::Override Budget;
  CoreBudget::Hold Others;
};

} // namespace test
} // namespace lud

#endif // LUD_TESTS_TESTUTIL_H
