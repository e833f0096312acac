//===- bench/frozen_graph_bench.cpp - Sealed read-path latency -------------===//
//
// Measures what the FrozenGraph refactor buys on the paper-scale composed
// workload: seal cost and retained bytes, the per-location activity sweep
// that the analyses actually run (frozen offset-indexed spans vs a
// FlatMap::find per location), and the end-to-end wall time of report +
// n-RAC generation over the sealed representation. The acceptance shape:
// the frozen read-path sweep beats FlatMap::find by an order of magnitude,
// and the full report pipeline stays under a second at 100K+ nodes.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/CostModel.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "profiling/FrozenGraph.h"
#include "workloads/Composed.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <utility>

using namespace lud;
using namespace lud::bench;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

struct SealedRun {
  Workload W;
  ProfiledRun Run;
  FrozenGraph Frozen;
  double SealSeconds;
};

/// Profiles the composed workload once and seals a copy of its graph; the
/// build graph stays alive in Run.Prof as the FlatMap baseline.
SealedRun profileComposed(int64_t Scale) {
  Workload W = buildComposedWorkload(Scale);
  ProfiledRun P = profiledRun(*W.M);
  auto T0 = std::chrono::steady_clock::now();
  FrozenGraph F(P.Prof->graph());
  double Seal = secondsSince(T0);
  return SealedRun{std::move(W), std::move(P), std::move(F), Seal};
}

void printTable() {
  const int64_t S = tableScale();
  std::printf("=== FrozenGraph: sealed read path (composed scale %lld) ===\n",
              (long long)S);
  SealedRun R = profileComposed(S);
  const DepGraph &G = R.Run.Prof->graph();
  const FrozenGraph &F = R.Frozen;
  std::printf("graph: %zu nodes, %zu edges, seal %.1f ms\n", F.numNodes(),
              F.numEdges(), R.SealSeconds * 1e3);

  FrozenGraph::MemoryFootprint MF = F.memoryFootprint();
  std::printf("frozen bytes: nodes %zu, edges %zu, locs %zu, index %zu "
              "(total %.1f KB vs build graph %.1f KB)\n",
              MF.NodeBytes, MF.EdgeBytes, MF.LocBytes, MF.IndexBytes,
              double(MF.total()) / 1024.0,
              double(G.memoryFootprint().total()) / 1024.0);

  // Heap-location activity: the lookup the read path actually replaced.
  // The old Report/CacheCost passes did a FlatMap::find per location per
  // map; the frozen universe makes the same sweep a direct offset index.
  const auto &WMap = G.writers();
  const auto &RMap = G.readers();
  double MapSweep = 1e99, FrzSweep = 1e99;
  for (int Rep = 0; Rep != 5; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    uint64_t Sum = 0;
    for (size_t LI = 0; LI != F.numLocs(); ++LI) {
      HeapLoc L = F.loc(LI);
      auto WIt = WMap.find(L);
      if (WIt != WMap.end())
        for (NodeId N : WIt->second)
          Sum += G.freq(N);
      auto RIt = RMap.find(L);
      if (RIt != RMap.end())
        for (NodeId N : RIt->second)
          Sum += G.freq(N);
    }
    benchmark::DoNotOptimize(Sum);
    MapSweep = std::min(MapSweep,
                        secondsSince(T0) * 1e9 / double(F.numLocs()));
    T0 = std::chrono::steady_clock::now();
    Sum = 0;
    for (size_t LI = 0; LI != F.numLocs(); ++LI) {
      for (NodeId N : F.writersAt(LI))
        Sum += F.freq(N);
      for (NodeId N : F.readersAt(LI))
        Sum += F.freq(N);
    }
    benchmark::DoNotOptimize(Sum);
    FrzSweep = std::min(FrzSweep,
                        secondsSince(T0) * 1e9 / double(F.numLocs()));
  }
  std::printf("%-24s | %10s\n", "loc activity (ns/loc)", "sweep");
  std::printf("%-24s | %10.1f\n", "FlatMap::find (build)", MapSweep);
  std::printf("%-24s | %10.1f\n", "frozen spans (indexed)", FrzSweep);
  std::printf("%-24s | %9.2fx\n", "speedup (indexed)",
              FrzSweep > 0 ? MapSweep / FrzSweep : 0);

  // End-to-end analysis pass over the sealed graph: cost model, ranked
  // report with n-RAC aggregation, and the dead-value sweep.
  auto T0 = std::chrono::steady_clock::now();
  CostModel CM(F);
  ReportOptions Opts;
  LowUtilityReport Report(CM, *R.W.M, Opts);
  DeadValueAnalysis DV = computeDeadValues(F, F.totalFreq());
  benchmark::DoNotOptimize(DV.Metrics.ipd());
  double ReportSec = secondsSince(T0);
  std::printf("report + %u-RAC + dead-value generation: %.3f s\n",
              unsigned(Opts.Depth), ReportSec);

  emitJsonRow("frozen_graph/report_nrac", S, ReportSec, F.numNodes(),
              F.numEdges());
  std::printf("\n");
}

/// Timing aspect: sealing the composed build graph.
void BM_Seal(benchmark::State &State) {
  static Workload W = buildComposedWorkload(tableScale() / 4);
  static ProfiledRun P = profiledRun(*W.M);
  for (auto _ : State) {
    FrozenGraph F(P.Prof->graph());
    benchmark::DoNotOptimize(F.numNodes());
  }
}
BENCHMARK(BM_Seal);

} // namespace

int main(int argc, char **argv) {
  initJsonRows(&argc, argv);
  benchmark::Initialize(&argc, argv);
  printTable();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
