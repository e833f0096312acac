//===- tools/lud-analyze.cpp - Offline graph analysis ----------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline half of the Section 3.2 hand-off: given a program and a
/// Gcost previously serialized by `lud-run --dump-graph`, re-runs the
/// analyses without executing anything ("the JVM only needs to write Gcost
/// to external storage").
///
///   lud-run --dump-graph prog.graph prog.lud
///   lud-analyze prog.lud prog.graph [--depth N] [--top K]
///
//===----------------------------------------------------------------------===//

#include "profiling/FrozenGraph.h"
#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "tools/AnalysisRequest.h"
#include "tools/ProgramSource.h"
#include "workloads/Render.h"

#include <string>
#include <vector>

using namespace lud;

int main(int argc, char **argv) {
  cli::ProgramSource Src;
  cli::AnalysisRequest Req;
  cli::OptionSet P("lud-analyze", "<program.lud> <gcost.graph>");
  Req.declare(P, cli::AnalysisRequest::ShapeOpts);
  if (!P.parse(argc, argv)) {
    P.usage();
    return 2;
  }
  if (P.exitRequested())
    return 0;
  if (P.positionals().size() != 2) {
    P.usage();
    return 2;
  }
  Src.File = P.positionals()[0];
  const std::string &GraphPath = P.positionals()[1];

  int LoadRc = 0;
  std::unique_ptr<Module> M = Src.load(LoadRc);
  if (!M)
    return LoadRc;
  std::string GraphText;
  if (!readFileBytes(GraphPath, GraphText)) {
    errs() << "cannot read '" << GraphPath << "'\n";
    return 1;
  }
  std::vector<std::string> Errors;
  std::unique_ptr<DepGraph> G = readGraph(GraphText, Errors);
  if (!G) {
    for (const std::string &E : Errors)
      errs() << GraphPath << ": " << E << "\n";
    return 1;
  }

  // The build-phase graph is done mutating: seal it and analyze the packed
  // representation only.
  FrozenGraph FG = FrozenGraph::seal(std::move(*G));
  G.reset();

  OutStream &OS = outs();
  OS << "offline Gcost: " << uint64_t(FG.numNodes()) << " nodes, "
     << uint64_t(FG.numEdges()) << " edges, covering " << FG.totalFreq()
     << " instruction instances\n";

  // No profiler state offline: the graph-only sections, relative to the
  // instances the graph covers.
  Req.Spec.Report = Req.Spec.Caches = true;
  renderAnalysisSections(*M, nullptr, FG, Req.Spec, OS);
  renderBloatMetrics(FG, FG.totalFreq(), OS,
                            "relative to covered instances");
  return 0;
}
