//===- tools/lud-replay.cpp - Re-execute recorded runs ---------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline twin of `lud-run --record`: re-executes the runs of one or
/// more `lud.run.v1` manifests under a fresh profiling session, checking
/// each against its record, and prints the same report sections the live
/// run would have. Multiple manifests fold in argument order, exactly like
/// the recording run's shards:
///
///   lud-run --record=p.run --clients=all p.lud
///   lud-replay --clients=all --report p.lud p.run
///
///   lud-run --record=p.run --shards 8 p.lud
///   lud-replay --all p.lud p.run.shard0 ... p.run.shard7
///
/// A manifest recorded against a different program, or a run that does
/// not reproduce its record, fails with a diagnostic naming the file and
/// the line. --engine picks the engine re-execution runs on; the results
/// are engine-independent.
///
//===----------------------------------------------------------------------===//

#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"
#include "tools/AnalysisRequest.h"
#include "tools/ProgramSource.h"
#include "workloads/ParallelDriver.h"
#include "workloads/Render.h"

#include <string>
#include <vector>

using namespace lud;

int main(int argc, char **argv) {
  cli::ProgramSource Src;
  cli::AnalysisRequest Req;
  unsigned Threads = 1;
  cli::OptionSet Cli("lud-replay", "<program.lud> <manifest>...");
  Req.declare(Cli, cli::AnalysisRequest::AllOpts);
  Cli.number("--threads", Threads,
             "N  worker threads for multiple manifests (with --clients a "
             "manifest re-executes on three threads while the free cores "
             "cover two per worker, on two while a core is free, else on "
             "one)",
             /*Min=*/1);
  if (!Cli.parse(argc, argv)) {
    Cli.usage();
    return 2;
  }
  if (Cli.exitRequested())
    return 0;
  if (Cli.positionals().size() < 2) {
    errs() << "expected a program and at least one manifest\n";
    Cli.usage();
    return 2;
  }
  Src.File = Cli.positionals()[0];
  std::vector<std::string> Manifests(Cli.positionals().begin() + 1,
                                     Cli.positionals().end());

  int LoadRc = 0;
  std::unique_ptr<Module> M = Src.load(LoadRc);
  if (!M)
    return LoadRc;

  ShardedSession SR = replayShardedSession(
      *M, Manifests, Req.sessionConfig(), Threads);
  if (!SR.Error.empty()) {
    errs() << SR.Error << "\n";
    return 1;
  }

  OutStream &OS = outs();
  ProfileSession &Session = *SR.Session;
  // Replay is done mutating the graph: seal once for every read path —
  // the summary line included, so the printed footprint is the sealed
  // form's, same as the daemon serves for the same streams.
  FrozenGraph FG(Session.slicing()->graph());
  if (obs::MetricsRegistry *Stats = Session.stats())
    FG.accountStats(*Stats);

  renderReplaySummary(Session, FG, SR.Events, uint64_t(Manifests.size()),
                             OS);
  if (!Req.dumpGraph(FG, *M, OS))
    return 1;
  renderAnalysisSections(*M, &Session, FG, Req.Spec, OS);
  if (Req.Spec.Dead)
    renderBloatMetrics(FG, FG.totalFreq(), OS);
  if (!Req.emitStats(Session.stats()))
    return 1;
  return 0;
}
