//===- bench/frozen_graph_bench.cpp - Sealed read-path latency -------------===//
//
// Measures what the FrozenGraph refactor buys on the paper-scale composed
// workload: seal cost and retained bytes, the per-location activity sweep
// that the analyses actually run (frozen offset-indexed spans vs the build
// graph's LocId probe and record per location), and the end-to-end wall
// time of report + n-RAC generation over the sealed representation, with
// the HRAB closure-visit count beside it. The acceptance shape: the frozen
// read-path sweep beats the keyed probe, and the full report pipeline
// stays under a second at 100K+ nodes.
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
/// build graph stays alive in Run.Prof as the keyed-probe baseline.
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

  // Heap-location activity: a caller holding a HeapLoc probes the build
  // graph's LocId table and reads the record; the frozen universe makes
  // the same sweep a direct offset index.
  double MapSweep = 1e99, FrzSweep = 1e99;
  for (int Rep = 0; Rep != 5; ++Rep) {
    auto T0 = std::chrono::steady_clock::now();
    uint64_t Sum = 0;
    for (size_t LI = 0; LI != F.numLocs(); ++LI) {
      const DepGraph::LocRecord &Rec = G.record(G.findLoc(F.loc(LI)));
      Sum += Rec.Activity.Writes + Rec.Activity.Reads;
      for (NodeId N : Rec.Writers)
        Sum += G.freq(N);
      for (NodeId N : Rec.Readers)
        Sum += G.freq(N);
    }
    benchmark::DoNotOptimize(Sum);
    MapSweep = std::min(MapSweep,
                        secondsSince(T0) * 1e9 / double(F.numLocs()));
    T0 = std::chrono::steady_clock::now();
    Sum = 0;
    for (size_t LI = 0; LI != F.numLocs(); ++LI) {
      Sum += F.activityAt(LI).Writes + F.activityAt(LI).Reads;
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
  std::printf("%-24s | %10.1f\n", "LocId probe (build)", MapSweep);
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
  std::printf("report + %u-RAC + dead-value generation: %.3f s, "
              "%llu HRAB closure visits\n",
              unsigned(Opts.Depth), ReportSec,
              (unsigned long long)CM.hrabVisits());

  // The work HRAB does, counted (deterministic): the nodes the chain-forest
  // closures enter over every distinct reader node, against the nodes the
  // plain BFS visits for the same readers.
  CostModel Count(F);
  uint64_t BfsVisits = 0;
  size_t NumReaders = 0;
  std::vector<uint8_t> Seen(F.numNodes(), 0);
  for (uint32_t I = 0; I != F.numLocs(); ++I)
    for (NodeId Reader : F.readersAt(I)) {
      if (Seen[Reader])
        continue;
      Seen[Reader] = 1;
      ++NumReaders;
      Count.hrab(Reader);
      Count.hrabReference(Reader, &BfsVisits);
    }
  std::printf("HRAB closure visits over %zu readers: forest %llu, plain BFS "
              "%llu (%.1fx fewer)\n",
              NumReaders, (unsigned long long)Count.hrabVisits(),
              (unsigned long long)BfsVisits,
              Count.hrabVisits() ? double(BfsVisits) / double(Count.hrabVisits())
                                 : 0.0);

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
