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
inline bool hasEdge(const DepGraph &G, NodeId From, NodeId To) {
  for (NodeId N : G.node(From).Out)
    if (N == To)
      return true;
  return false;
}

/// Holds every core of the process budget for its lifetime, as a caller
/// whose own threads cover the cores would: sessions then find no core
/// spare and run their clients inline.
struct SaturatedProcess {
  CoreBudget::Hold Cores =
      CoreBudget::process().hold(CoreBudget::process().cores());
};

} // namespace test
} // namespace lud

#endif // LUD_TESTS_TESTUTIL_H
