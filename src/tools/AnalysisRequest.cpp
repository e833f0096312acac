//===- tools/AnalysisRequest.cpp - Shared analysis options -----------------===//

#include "tools/AnalysisRequest.h"

#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "trace/RunManifest.h"

#include <cstdio>

using namespace lud;
using namespace lud::cli;

void AnalysisRequest::declare(OptionSet &P, unsigned Groups) {
  ReportSpec &S = Spec;
  if (Groups & SectionOpts) {
    P.flag("--report", S.Report, "rank data structures by cost/benefit");
    P.flag("--dead", S.Dead, "print IPD/IPP/NLD bloat metrics");
    P.flag("--overwrites", S.Overwrites,
           "rank locations rewritten before read");
    P.flag("--predicates", S.Predicates, "list always-constant predicates");
    P.flag("--methods", S.Methods, "rank methods by return-value cost");
    P.flag("--caches", S.Caches, "rank structures by cache effectiveness");
    P.custom("--all", ValueMode::None, "everything above",
             [&S](const std::string &) {
               S.Report = S.Dead = S.Overwrites = S.Predicates = S.Methods =
                   S.Caches = true;
               return true;
             });
  }
  if (Groups & ClientOpts)
    clientsOption(P, Clients);
  if (Groups & SlotOpts)
    P.number("--slots", Slots, "N  context slots s (default 16)",
             /*Min=*/1);
  if (Groups & EngineOpts)
    engineOption(P, Engine);
  if (Groups & ShapeOpts) {
    P.number("--depth", S.Client.Depth,
             "N  reference-tree height n (default 4)", /*Min=*/1);
    P.number("--top", S.Client.TopK, "K  rows per report (default 15)",
             /*Min=*/0);
  }
  if (Groups & DumpOpts)
    P.str("--dump-graph", DumpGraph,
          "F  serialize Gcost to file F (offline use)");
  if (Groups & StatsOpts) {
    P.custom("--stats", ValueMode::Optional,
             "[=text|json|csv]  emit the profiler's own telemetry "
             "(default: text)",
             [this](const std::string &V) {
               return obs::parseStatsFormat(V, Stats);
             });
    P.str("--stats-out", StatsOut,
          "F  write the telemetry to file F instead of stdout");
  }
}

SessionConfig AnalysisRequest::sessionConfig() const {
  SessionConfig Cfg;
  Cfg.Engine = Engine;
  Cfg.Slicing.ContextSlots = Slots;
  Cfg.Clients = Clients;
  Cfg.CollectStats = Stats != obs::StatsFormat::Off;
  return Cfg;
}

bool AnalysisRequest::dumpGraph(const FrozenGraph &FG, const Module &M,
                                OutStream &OS) const {
  if (DumpGraph.empty())
    return true;
  uint64_t Hash = trace::moduleHash(M);
  if (!writeFile(DumpGraph,
                 [&FG, Hash](OutStream &F) { writeGraph(FG, F, Hash); }))
    return false;
  OS << "Gcost written to " << DumpGraph << "\n";
  return true;
}

bool AnalysisRequest::emitStats(const obs::MetricsRegistry *R) const {
  if (!R || Stats == obs::StatsFormat::Off)
    return true;
  auto Write = [this, R](OutStream &OS) { obs::writeStats(*R, Stats, OS); };
  if (!StatsOut.empty())
    return writeFile(StatsOut, Write);
  Write(outs());
  return true;
}
