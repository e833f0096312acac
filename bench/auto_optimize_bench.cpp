//===- bench/auto_optimize_bench.cpp - Automatic vs manual fixes -----------===//
//
// Section 1 notes the analysis findings "provide useful insights for
// automatic code optimization in compilers". This bench quantifies that:
// for each case-study workload, the profile-guided dead-code remover
// (analysis/Optimizer.h) is applied automatically and compared against the
// paper's manual fix (the Optimized workload variant). Expected shape: the
// automatic pass recovers a meaningful slice of the win on dead-value bloat
// (bloat's debug strings, chart's entries), and much less where the fix
// needs algorithmic insight (tomcat's array churn, eclipse's rehash) — the
// reason the paper targets a human-in-the-loop report rather than a
// transparent optimization.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/Optimizer.h"

#include <benchmark/benchmark.h>

using namespace lud;
using namespace lud::bench;

namespace {

const char *kApps[] = {"bloat",  "chart",  "eclipse",   "sunflow",
                       "derby",  "tomcat", "tradebeans", "xalan"};

void printTable() {
  const int64_t S = tableScale() / 2;
  std::printf("=== Automatic dead-bloat removal vs the manual fixes "
              "(scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s %12s %10s %10s %12s %12s\n", "program", "instrs",
              "auto-%", "manual-%", "removed-st", "removed-dce");
  for (const char *Name : kApps) {
    Workload W = buildWorkload(Name, S);
    TimedRun Before = baselineRun(*W.M);
    ProfiledRun P = profiledRun(*W.M);
    const FrozenGraph G(P.Prof->graph());
    DeadValueAnalysis DV = computeDeadValues(G, P.Run.ExecutedInstrs);
    OptimizeResult R = removeProfiledDeadCode(*W.M, G, DV);
    TimedRun After = baselineRun(*R.M);
    bool OutputOk = After.Run.SinkHash == Before.Run.SinkHash;
    double AutoPct = 100.0 *
                     (1.0 - double(After.Run.ExecutedInstrs) /
                                double(Before.Run.ExecutedInstrs));
    double ManualPct = 0;
    if (hasOptimizedVariant(Name)) {
      Workload Opt = buildWorkload(Name, S, /*Optimized=*/true);
      TimedRun Manual = baselineRun(*Opt.M);
      ManualPct = 100.0 * (1.0 - double(Manual.Run.ExecutedInstrs) /
                                     double(Before.Run.ExecutedInstrs));
    }
    std::printf("%-12s %12llu %9.1f%% %9.1f%% %12zu %12zu%s\n", Name,
                (unsigned long long)Before.Run.ExecutedInstrs, AutoPct,
                ManualPct, R.Stats.RemovedStores, R.Stats.RemovedPure,
                OutputOk ? "" : "  !! OUTPUT CHANGED");
  }
  std::printf("(manual-%% is 0 where the paper has no fix; shape: automatic "
              "removal captures dead-value bloat, manual fixes also capture "
              "algorithmic bloat)\n\n");
}

void BM_ProfileOptimizeCycle(benchmark::State &State) {
  Workload W = buildWorkload("chart", tableScale() / 4);
  for (auto _ : State) {
    ProfiledRun P = profiledRun(*W.M);
    const FrozenGraph G(P.Prof->graph());
    DeadValueAnalysis DV = computeDeadValues(G, P.Run.ExecutedInstrs);
    OptimizeResult R = removeProfiledDeadCode(*W.M, G, DV);
    benchmark::DoNotOptimize(R.Stats.removedTotal());
  }
}

} // namespace

BENCHMARK(BM_ProfileOptimizeCycle)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
