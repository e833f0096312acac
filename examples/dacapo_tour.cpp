//===- examples/dacapo_tour.cpp - Full diagnosis of one workload -----------===//
//
// Runs one of the 18 DaCapo-style workloads under the profiler and prints
// every diagnosis the tool offers — the workflow of the paper's case
// studies (Section 4.2):
//
//   dacapo_tour [workload] [scale]     (default: eclipse 500)
//
//===----------------------------------------------------------------------===//

#include "analysis/CacheCost.h"
#include "analysis/Clients.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <cstdlib>
#include <cstring>

using namespace lud;

int main(int argc, char **argv) {
  OutStream &OS = outs();
  std::string Name = argc > 1 ? argv[1] : "eclipse";
  int64_t Scale = argc > 2 ? std::strtoll(argv[2], nullptr, 10) : 500;

  bool Known = false;
  for (const std::string &N : dacapoNames())
    Known |= N == Name;
  if (!Known) {
    errs() << "unknown workload '" << Name << "'; choose one of:\n ";
    for (const std::string &N : dacapoNames())
      errs() << " " << N;
    errs() << "\n";
    return 1;
  }

  Workload W = buildWorkload(Name, Scale);
  OS << "=== " << Name << " (scale " << Scale << ") ===\n";
  // Two sessions through the shared lifecycle: one uninstrumented for
  // the overhead denominator, one carrying the slicing substrate.
  ProfileSession BaseSession(SessionConfig::baseline());
  TimedRun Base = BaseSession.run(*W.M);
  ProfileSession Session(SessionConfig::profiled());
  TimedRun Prof = Session.run(*W.M);
  SlicingProfiler &SP = *Session.slicing();
  OS << "baseline: " << Base.Run.ExecutedInstrs << " instructions in ";
  OS.printFixed(Base.Seconds * 1e3, 2);
  OS << " ms;  profiled: ";
  OS.printFixed(Prof.Seconds * 1e3, 2);
  OS << " ms (";
  OS.printFixed(Prof.Seconds / Base.Seconds, 1);
  OS << "x overhead)\n";
  const DepGraph &G = SP.graph();
  OS << "Gcost: " << uint64_t(G.numNodes()) << " nodes, "
     << uint64_t(G.numEdges()) << " edges, ";
  OS.printFixed(double(G.memoryFootprint().total()) / 1024.0, 1);
  OS << " KB retained; CR = ";
  OS.printFixed(SP.averageCR(), 3);
  OS << "\n\n";

  const FrozenGraph FG(G);
  CostModel CM(FG);
  LowUtilityReport Report(CM, *W.M);
  OS << "--- low-utility data structures (n-RAC / n-RAB ranking) ---\n";
  Report.print(OS, 8);
  if (!W.PlantedSites.empty()) {
    OS << "planted structures rank:";
    for (AllocSiteId S : W.PlantedSites) {
      int R = Report.rankOf(S);
      OS << " " << (R < 0 ? std::string("-") : std::to_string(R + 1));
    }
    OS << "\n";
  }

  OS << "\n--- locations rewritten before being read ---\n";
  printOverwrites(rankOverwrites(SP, *W.M), OS, 5);

  OS << "\n--- always-constant predicates ---\n";
  ClientOptions Busy;
  Busy.MinCount = 16;
  printConstantPredicates(findConstantPredicates(SP, CM, *W.M, Busy),
                          OS, 5);

  OS << "\n--- costliest method return values ---\n";
  std::vector<MethodCostRow> Methods = computeMethodCosts(CM, *W.M);
  for (size_t I = 0; I != Methods.size() && I != 5; ++I) {
    OS << "  ";
    OS.printFixed(Methods[I].ReturnCost, 1);
    OS << "  " << Methods[I].Name << " (body instances: "
       << Methods[I].OwnFreq << ")\n";
  }

  OS << "\n--- cache effectiveness (least effective first) ---\n";
  printCacheScores(rankCacheEffectiveness(CM, *W.M), OS, 5);

  DeadValueAnalysis DV = computeDeadValues(FG, Prof.Run.ExecutedInstrs);
  OS << "\n--- bloat metrics ---\nIPD ";
  OS.printFixed(100.0 * DV.Metrics.ipd(), 1);
  OS << "%   IPP ";
  OS.printFixed(100.0 * DV.Metrics.ipp(), 1);
  OS << "%   NLD ";
  OS.printFixed(100.0 * DV.Metrics.nld(), 1);
  OS << "%\n";
  return 0;
}
