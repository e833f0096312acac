//===- bench/optimizer_bench.cpp - Rewritten vs original modules -----------===//
//
// The evidence-driven rewrite pipeline (analysis/PassManager.h) claims its
// committed rewrites are pure wins: same observables, fewer executed
// instructions and allocations. This bench measures that end to end on the
// three case studies the passes target — sunflow (clone-per-op +
// once-read memo), derby (map-to-array) and tomcat (expected ~0%: its
// churn needs algorithmic insight the gates refuse to fake) — timing the
// original and the rewritten module on both execution engines and
// reporting the allocation deltas the evidence layer promised.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "analysis/PassManager.h"

#include <benchmark/benchmark.h>

using namespace lud;
using namespace lud::bench;

namespace {

const char *kApps[] = {"sunflow", "derby", "tomcat"};

/// Minimum wall time over \p Reps uninstrumented runs on \p E.
double engineSeconds(const Module &M, EngineKind E, RunResult *Out = nullptr,
                     int Reps = 3) {
  double Best = 1e100;
  for (int I = 0; I != Reps; ++I) {
    SessionConfig SC = SessionConfig::baseline();
    SC.Engine = E;
    ProfileSession S(SC);
    TimedRun R = S.run(M);
    if (R.Seconds < Best) {
      Best = R.Seconds;
      if (Out)
        *Out = R.Run;
    }
  }
  return Best;
}

void printTable() {
  const int64_t S = tableScale();
  std::printf("=== Profile-guided rewrite pipeline: original vs rewritten "
              "(scale %lld) ===\n",
              (long long)S);
  std::printf("%-10s %12s %12s %8s %10s %10s %8s %8s\n", "program", "instrs",
              "instrs'", "auto-%", "allocs", "allocs'", "applied", "rolled");
  for (const char *Name : kApps) {
    Workload W = buildWorkload(Name, S);
    // Graph size for the JSON rows: the profile the pipeline itself folds.
    ProfiledRun P = profiledRun(*W.M);
    size_t Nodes = P.Prof->graph().numNodes();
    size_t Edges = P.Prof->graph().numEdges();

    opt::PassManager PM;
    opt::PipelineResult R = PM.run(*W.M);
    const Module &After = R.M ? *R.M : *W.M;

    size_t RolledBack = 0;
    for (const auto &[PassName, PS] : R.PerPass)
      RolledBack += PS.RolledBack;
    double AutoPct =
        R.InstrsBefore
            ? 100.0 * (1.0 - double(R.InstrsAfter) / double(R.InstrsBefore))
            : 0.0;
    std::printf("%-10s %12llu %12llu %7.1f%% %10llu %10llu %8zu %8zu\n",
                Name, (unsigned long long)R.InstrsBefore,
                (unsigned long long)R.InstrsAfter, AutoPct,
                (unsigned long long)R.AllocsBefore,
                (unsigned long long)R.AllocsAfter, R.applied(), RolledBack);

    for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
      RunResult Orig, Rewritten;
      double TOrig = engineSeconds(*W.M, E, &Orig);
      double TNew = engineSeconds(After, E, &Rewritten);
      const char *EN = engineKindName(E);
      std::printf("  %-8s %-9s orig %.4fs  rewritten %.4fs  (%+.1f%%)%s\n",
                  "", EN, TOrig, TNew,
                  TOrig > 0 ? 100.0 * (TNew / TOrig - 1.0) : 0.0,
                  Rewritten.SinkHash == Orig.SinkHash ? ""
                                                      : "  !! OUTPUT CHANGED");
      emitJsonRow(std::string("optimizer/") + Name + "/original", S, TOrig,
                  Nodes, Edges, E);
      emitJsonRow(std::string("optimizer/") + Name + "/rewritten", S, TNew,
                  Nodes, Edges, E);
    }
  }
  std::printf("(auto-%% counts executed instructions on the validation "
              "engine; allocs' reflects hoisted clones and removed memo "
              "tables; tomcat stays ~0%% by design — no gate fires)\n\n");
}

void BM_RewritePipeline(benchmark::State &State) {
  // Full profile → evidence → propose → validate → commit cycle.
  Workload W = buildWorkload("sunflow", tableScale() / 4);
  for (auto _ : State) {
    opt::PassManager PM;
    opt::PipelineResult R = PM.run(*W.M);
    benchmark::DoNotOptimize(R.applied());
  }
}

} // namespace

BENCHMARK(BM_RewritePipeline)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  initJsonRows(&argc, argv);
  benchmark::Initialize(&argc, argv);
  printTable();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
