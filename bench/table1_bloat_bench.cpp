//===- bench/table1_bloat_bench.cpp - Table 1 (c): bloat measurement -------===//
//
// Reproduces Table 1 part (c) at s = 16: total instruction instances I, the
// fraction of instances producing only ultimately-dead values (IPD), the
// fraction producing values that end up only in predicates (IPP), and the
// fraction of graph nodes that are ultimately dead (NLD). Shape to check
// against the paper: the case-study programs with the biggest wins (bloat,
// derby, sunflow analogues) have the highest IPD; fop's analogue has high
// IPP with near-zero IPD; NLD is substantial (paper average 25.5%).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/DeadValues.h"

#include <benchmark/benchmark.h>

using namespace lud;
using namespace lud::bench;

namespace {

void printTable() {
  const int64_t S = tableScale();
  std::printf("=== Table 1 (c): bloat measurement, s=16 (scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s %12s %8s %8s %8s\n", "program", "I", "IPD%", "IPP%",
              "NLD%");
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, S);
    ProfiledRun P = profiledRun(*W.M);
    DeadValueAnalysis DV =
        computeDeadValues(FrozenGraph(P.Prof->graph()), P.Run.ExecutedInstrs);
    std::printf("%-12s %12llu %8.1f %8.1f %8.1f\n", Name.c_str(),
                (unsigned long long)DV.Metrics.TotalInstrInstances,
                100.0 * DV.Metrics.ipd(), 100.0 * DV.Metrics.ipp(),
                100.0 * DV.Metrics.nld());
  }
  std::printf("\n");
}

/// Timing aspect: the dead-value analysis itself.
void BM_DeadValueAnalysis(benchmark::State &State) {
  const std::string &Name = dacapoNames()[State.range(0)];
  Workload W = buildWorkload(Name, tableScale() / 4);
  ProfiledRun P = profiledRun(*W.M);
  const FrozenGraph G(P.Prof->graph());
  for (auto _ : State) {
    DeadValueAnalysis DV = computeDeadValues(G, P.Run.ExecutedInstrs);
    benchmark::DoNotOptimize(DV.Metrics.DeadFreq);
  }
  State.SetLabel(Name);
  State.counters["nodes"] = double(P.Prof->graph().numNodes());
}

} // namespace

BENCHMARK(BM_DeadValueAnalysis)->DenseRange(0, 17);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
