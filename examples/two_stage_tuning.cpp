//===- examples/two_stage_tuning.cpp - The Section 4.1 workflow ------------===//
//
// The paper's recommended tuning workflow (Section 4.1): first run a cheap
// flat profiler to find where the time goes and which phase matters; then
// enable the expensive cost-benefit tracking only there, and read the
// ranked reports. Demonstrated on the tradebeans analogue, whose server
// startup/shutdown dominate the run.
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "profiling/FlatProfiler.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

using namespace lud;

int main() {
  OutStream &OS = outs();
  Workload W = buildWorkload("tradebeans", 800);

  // Stage 1: the lightweight profile.
  FlatProfiler Flat;
  Heap H;
  Interpreter<FlatProfiler> I(*W.M, H, Flat);
  RunResult R = I.run();
  OS << "=== stage 1: flat profile (" << R.ExecutedInstrs
     << " instructions) ===\n";
  OS << "phase instruction counts:";
  for (size_t Ph = 0; Ph != 3; ++Ph)
    OS << "  phase" << uint64_t(Ph) << "=" << Flat.phaseInstrs()[Ph];
  OS << "\nhottest methods:\n";
  std::vector<FlatProfiler::MethodRow> Hot = Flat.hotMethods(*W.M);
  for (size_t K = 0; K != Hot.size() && K != 5; ++K)
    OS << "  " << Hot[K].OwnInstrs << "  " << Hot[K].Name << " (x"
       << Hot[K].Invocations << ")\n";
  OS << "hottest allocation sites:\n";
  std::vector<FlatProfiler::AllocRow> Sites = Flat.hotAllocSites(*W.M);
  for (size_t K = 0; K != Sites.size() && K != 5; ++K)
    OS << "  " << Sites[K].Objects << "  " << Sites[K].Description << "\n";

  // The flat profile says: startup/shutdown are ballast; the interesting
  // transaction work is phase 1. Stage 2: track only that phase.
  OS << "\n=== stage 2: cost-benefit tracking of phase 1 only ===\n";
  SlicingConfig Cfg;
  Cfg.TrackedPhaseMask = 1ull << 1;
  ProfileSession Stage2(SessionConfig::profiled(Cfg));
  RunResult Run = Stage2.run(*W.M).Run;
  const DepGraph &G = Stage2.slicing()->graph();
  OS << "tracked " << G.totalFreq() << " of " << Run.ExecutedInstrs
     << " instruction instances ("
     << uint64_t(100 * G.totalFreq() / Run.ExecutedInstrs) << "%)\n\n";

  const FrozenGraph FG(G);
  CostModel CM(FG);
  LowUtilityReport Report(CM, *W.M);
  Report.print(OS, 5);
  OS << "\nThe KeyBlock/KeyIter wrappers surface immediately once the\n"
        "analysis looks only at the transaction phase.\n";

  int Best = -1;
  for (AllocSiteId S : W.PlantedSites) {
    int Rank = Report.rankOf(S);
    if (Rank >= 0 && (Best < 0 || Rank < Best))
      Best = Rank;
  }
  return Best >= 0 && Best < 5 ? 0 : 1;
}
