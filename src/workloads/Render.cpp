//===- workloads/Render.cpp - The one report-section renderer --------------===//

#include "workloads/Render.h"

#include "analysis/CacheCost.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"
#include "workloads/Driver.h"

#include <cassert>

using namespace lud;

void lud::renderReplaySummary(const ProfileSession &S, const FrozenGraph &FG,
                              uint64_t Events, uint64_t NumTraces,
                              OutStream &OS) {
  OS << "replayed " << Events << " events from " << NumTraces
     << (NumTraces == 1 ? " trace\n" : " traces\n");
  OS << "Gcost: " << uint64_t(FG.numNodes()) << " nodes, "
     << uint64_t(FG.numEdges()) << " edges, sealed ";
  OS.printFixed(double(FG.memoryFootprint().total()) / 1024.0, 1);
  OS << " KB, CR ";
  const SlicingProfiler *Prof = S.slicing();
  OS.printFixed(Prof ? Prof->averageCR() : 0.0, 3);
  OS << "\n";
}

void lud::renderAnalysisSections(const Module &M, const ProfileSession *S,
                                 const FrozenGraph &FG, const ReportSpec &Spec,
                                 OutStream &OS) {
  const ClientOptions &CO = Spec.Client;
  const SlicingProfiler *Prof = S ? S->slicing() : nullptr;
  assert((Prof || (!Spec.Overwrites && !Spec.Predicates)) &&
         "overwrite and predicate sections need a profiling session");
  CostModel CM(FG);
  if (Spec.Report) {
    ReportOptions Opts;
    Opts.Depth = CO.Depth;
    LowUtilityReport Report(CM, M, Opts);
    OS << "\n=== low-utility data structures ===\n";
    Report.print(OS, CO.TopK);
  }
  if (Spec.Overwrites) {
    OS << "\n=== locations rewritten before read ===\n";
    printOverwrites(rankOverwrites(*Prof, M), OS, CO.TopK);
  }
  if (Spec.Predicates) {
    OS << "\n=== always-constant predicates ===\n";
    printConstantPredicates(findConstantPredicates(*Prof, CM, M), OS, CO.TopK);
  }
  if (Spec.Methods) {
    OS << "\n=== costliest method return values ===\n";
    printMethodCosts(computeMethodCosts(CM, M), OS, CO.TopK);
  }
  if (Spec.Caches) {
    OS << "\n=== cache effectiveness (least effective first) ===\n";
    printCacheScores(rankCacheEffectiveness(CM, M), OS, CO.TopK);
  }
  if (S)
    S->printClientReports(M, OS, CO.TopK);
}

void lud::renderBloatMetrics(const FrozenGraph &FG, uint64_t ExecutedInstrs,
                             OutStream &OS, std::string_view Qualifier) {
  DeadValueAnalysis DV = computeDeadValues(FG, ExecutedInstrs);
  OS << "\n=== bloat metrics ";
  if (!Qualifier.empty())
    OS << "(" << Qualifier << ") ";
  OS << "===\nIPD ";
  OS.printFixed(100.0 * DV.Metrics.ipd(), 1);
  OS << "%   IPP ";
  OS.printFixed(100.0 * DV.Metrics.ipp(), 1);
  OS << "%   NLD ";
  OS.printFixed(100.0 * DV.Metrics.nld(), 1);
  OS << "%\n";
}

void lud::renderReplayReport(const Module &M, const ProfileSession &S,
                             const FrozenGraph &FG, uint64_t Events,
                             uint64_t NumTraces, const ReportSpec &Spec,
                             OutStream &OS) {
  renderReplaySummary(S, FG, Events, NumTraces, OS);
  renderAnalysisSections(M, &S, FG, Spec, OS);
  // Replay has no run, so the bloat denominator is the graph's own
  // frequency total, as offline.
  if (Spec.Dead)
    renderBloatMetrics(FG, FG.totalFreq(), OS);
}
