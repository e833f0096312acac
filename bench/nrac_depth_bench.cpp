//===- bench/nrac_depth_bench.cpp - Definition 7 depth sweep ---------------===//
//
// Ablation over the reference-tree height n of Definition 7 (the paper
// fixes n = 4, the reference chain length of HashSet). For each case-study
// workload and n in {1..6}: the rank of the best planted structure and the
// time to build the full report. Shape to check: ranking quality is stable
// for n >= 2 and the paper's n = 4 is comfortably in the plateau; report
// cost grows with n.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/Report.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace lud;
using namespace lud::bench;

namespace {

const char *kApps[] = {"bloat",  "eclipse", "sunflow",
                       "derby",  "tomcat",  "tradebeans"};

void printTable() {
  const int64_t S = tableScale();
  std::printf("=== Ablation: n-RAC/n-RAB depth sweep (scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s", "program");
  for (unsigned N = 1; N <= 6; ++N)
    std::printf("   n=%u rank (ms)", N);
  std::printf("\n");
  for (const char *Name : kApps) {
    Workload W = buildWorkload(Name, S);
    ProfiledRun P = profiledRun(*W.M);
    const FrozenGraph G(P.Prof->graph());
    CostModel CM(G);
    std::printf("%-12s", Name);
    for (unsigned N = 1; N <= 6; ++N) {
      ReportOptions Opts;
      Opts.Depth = N;
      auto T0 = std::chrono::steady_clock::now();
      LowUtilityReport Report(CM, *W.M, Opts);
      double Ms = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - T0)
                      .count();
      int Best = -1;
      for (AllocSiteId Site : W.PlantedSites) {
        int R = Report.rankOf(Site);
        if (R >= 0 && (Best < 0 || R < Best))
          Best = R;
      }
      std::printf("   %4d (%6.2f)", Best + 1, Ms);
    }
    std::printf("\n");
  }
  std::printf("(rank 1 = planted structure on top; paper default n=4)\n\n");
}

void BM_ReportDepth(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 2);
  ProfiledRun P = profiledRun(*W.M);
  const FrozenGraph G(P.Prof->graph());
  CostModel CM(G);
  ReportOptions Opts;
  Opts.Depth = unsigned(State.range(0));
  for (auto _ : State) {
    LowUtilityReport Report(CM, *W.M, Opts);
    benchmark::DoNotOptimize(Report.sites().size());
  }
  State.SetLabel("n=" + std::to_string(State.range(0)));
}

} // namespace

BENCHMARK(BM_ReportDepth)->DenseRange(1, 6);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
