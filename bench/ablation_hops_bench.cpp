//===- bench/ablation_hops_bench.cpp - Multi-hop scope sweep ---------------===//
//
// The trade-off the paper proposes to study in Section 3.2: how does
// widening the inspected data-flow region (k heap-to-heap hops instead of
// the single hop of Definitions 5/6) change what the analysis sees and
// what it costs? For each case-study workload and k in {1, 2, 3}:
//   - mean k-hop RAC over all written locations (reach grows with k),
//   - locations whose readers see a native consumer within k hops
//     (attribution of "eventually useful" spreads backward), and
//   - analysis wall time (the price of the wider scope).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/MultiHop.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace lud;
using namespace lud::bench;

namespace {

const char *kApps[] = {"bloat", "eclipse", "sunflow", "derby"};

void printTable() {
  const int64_t S = tableScale() / 2;
  std::printf("=== Ablation: k-hop cost/benefit scope (scale %lld) ===\n",
              (long long)S);
  std::printf("%-10s %3s %14s %18s %10s\n", "program", "k", "mean k-RAC",
              "native-reaching", "time(ms)");
  for (const char *Name : kApps) {
    Workload W = buildWorkload(Name, S);
    ProfiledRun P = profiledRun(*W.M);
    FrozenGraph G(P.Prof->graph());
    for (unsigned K = 1; K <= 3; ++K) {
      auto T0 = std::chrono::steady_clock::now();
      double RacSum = 0;
      uint64_t Locs = 0, NativeLocs = 0;
      for (uint32_t LI = 0; LI != G.numLocs(); ++LI) {
        if (G.writersAt(LI).empty())
          continue;
        LocCostBenefit CB = multiHopLocCostBenefit(G, LI, K);
        RacSum += CB.Rac;
        ++Locs;
        NativeLocs += CB.ReachesNative ? 1 : 0;
      }
      double Ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
      std::printf("%-10s %3u %14.1f %11llu/%-6llu %10.2f\n", Name, K,
                  Locs ? RacSum / double(Locs) : 0,
                  (unsigned long long)NativeLocs, (unsigned long long)Locs,
                  Ms);
    }
  }
  std::printf("(shape: reach and native attribution grow with k, and so "
              "does analysis cost — the explainability/coverage trade-off "
              "of Section 3.2)\n\n");
}

void BM_MultiHopSweep(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  ProfiledRun P = profiledRun(*W.M);
  FrozenGraph G(P.Prof->graph());
  unsigned K = unsigned(State.range(0));
  for (auto _ : State) {
    double Sum = 0;
    for (uint32_t LI = 0; LI != G.numLocs(); ++LI) {
      if (G.writersAt(LI).empty())
        continue;
      Sum += multiHopLocCostBenefit(G, LI, K).Rac;
    }
    benchmark::DoNotOptimize(Sum);
  }
  State.SetLabel("k=" + std::to_string(K));
}

} // namespace

BENCHMARK(BM_MultiHopSweep)->DenseRange(1, 3);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
