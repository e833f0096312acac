//===- bench/case_studies_bench.cpp - Section 4.2's six case studies -------===//
//
// Reproduces the six case studies of Section 4.2: for bloat, eclipse,
// sunflow, derby, tomcat and tradebeans, runs the original program and the
// variant with the paper's fix applied, reporting the running-time and
// executed-instruction reductions plus the rank the cost-benefit report
// assigns to the planted structure. Paper reference points: bloat 37%,
// eclipse 14.5%, sunflow 9-15%, derby 6%, tradebeans 2.5%, tomcat ~2%; the
// ordering (bloat's analogue wins most, tomcat's least) is the shape to
// check, and every planted structure must surface near the top of the
// report.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/Report.h"

#include <benchmark/benchmark.h>

using namespace lud;
using namespace lud::bench;

namespace {

const char *kCaseStudies[] = {"bloat",  "eclipse", "sunflow",
                              "derby",  "tomcat",  "tradebeans"};

void printTable() {
  const int64_t S = tableScale();
  std::printf("=== Section 4.2 case studies (scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s %10s %10s %8s %12s %12s %8s %8s %10s\n", "program",
              "time(ms)", "fixed(ms)", "time-%", "instrs", "fixed", "instr-%",
              "objs-%", "best rank");
  for (const char *Name : kCaseStudies) {
    Workload Orig = buildWorkload(Name, S, /*Optimized=*/false);
    Workload Opt = buildWorkload(Name, S, /*Optimized=*/true);
    double TOrig = baselineSeconds(*Orig.M, 5);
    double TOpt = baselineSeconds(*Opt.M, 5);
    TimedRun RO = baselineRun(*Orig.M);
    TimedRun RF = baselineRun(*Opt.M);

    ProfiledRun P = profiledRun(*Orig.M);
    const FrozenGraph G(P.Prof->graph());
    CostModel CM(G);
    LowUtilityReport Report(CM, *Orig.M);
    int BestRank = -1;
    for (AllocSiteId Site : Orig.PlantedSites) {
      int R = Report.rankOf(Site);
      if (R >= 0 && (BestRank < 0 || R < BestRank))
        BestRank = R;
    }

    double TimePct = 100.0 * (TOrig - TOpt) / TOrig;
    double InstrPct =
        100.0 *
        (double(RO.Run.ExecutedInstrs) - double(RF.Run.ExecutedInstrs)) /
        double(RO.Run.ExecutedInstrs);
    // The paper also reports object-count reductions (e.g. bloat -68%,
    // eclipse -2%, derby -8.6%).
    double ObjPct =
        100.0 *
        (double(RO.Run.ObjectsAllocated) - double(RF.Run.ObjectsAllocated)) /
        double(RO.Run.ObjectsAllocated);
    std::printf(
        "%-12s %10.2f %10.2f %7.1f%% %12llu %12llu %7.1f%% %7.1f%% %10d\n",
        Name, TOrig * 1e3, TOpt * 1e3, TimePct,
        (unsigned long long)RO.Run.ExecutedInstrs,
        (unsigned long long)RF.Run.ExecutedInstrs, InstrPct, ObjPct,
        BestRank + 1);
  }
  std::printf("(paper: bloat 37%%, eclipse 14.5%%, sunflow 9-15%%, derby "
              "6%%, tradebeans 2.5%%, tomcat ~2%%)\n\n");
}

void BM_Original(benchmark::State &State) {
  Workload W = buildWorkload(kCaseStudies[State.range(0)], tableScale() / 2);
  for (auto _ : State) {
    TimedRun R = baselineRun(*W.M);
    benchmark::DoNotOptimize(R.Run.SinkHash);
  }
  State.SetLabel(std::string(kCaseStudies[State.range(0)]) + "/orig");
}

void BM_Optimized(benchmark::State &State) {
  Workload W = buildWorkload(kCaseStudies[State.range(0)], tableScale() / 2,
                             /*Optimized=*/true);
  for (auto _ : State) {
    TimedRun R = baselineRun(*W.M);
    benchmark::DoNotOptimize(R.Run.SinkHash);
  }
  State.SetLabel(std::string(kCaseStudies[State.range(0)]) + "/fixed");
}

} // namespace

BENCHMARK(BM_Original)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Optimized)->DenseRange(0, 5)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
