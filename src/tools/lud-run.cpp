//===- tools/lud-run.cpp - Command-line driver -----------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The user-facing driver: loads a textual .lud program, executes it (with
/// or without profiling), and prints the requested diagnoses. The Gcost-based
/// reports come from the slicing substrate's execution; any --clients client
/// profilers run in executions of their own of the same program,
/// concurrently on threads of their own while the process has spare cores.
///
///   lud-run program.lud                       # just run it
///   lud-run --report program.lud              # low-utility ranking
///   lud-run --all --slots 32 program.lud      # every Gcost analysis
///   lud-run --clients=copy,nullness,typestate --report program.lud
///   lud-run --stats=json --stats-out=s.json --report program.lud
///   lud-run --record=p.run program.lud        # record a run manifest
///   lud-run --optimize --optimize-out=o.lud program.lud
///                                             # rewrite-pass pipeline
///
/// `lud-replay program.lud p.run` re-executes the recorded runs and prints
/// the same reports.
///
//===----------------------------------------------------------------------===//

#include "analysis/PassManager.h"
#include "ir/Printer.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"
#include "tools/AnalysisRequest.h"
#include "tools/ProgramSource.h"
#include "workloads/ParallelDriver.h"
#include "workloads/Render.h"

#include <span>
#include <string>
#include <vector>

using namespace lud;

namespace {

struct Options {
  cli::ProgramSource Src;
  cli::AnalysisRequest Req;
  bool PrintIR = false;
  bool Baseline = false;
  bool Optimize = false;
  std::vector<std::string> OptimizePasses;
  std::string OptimizeOut;
  std::string RecordPath;
  int64_t Shards = 1;
  int64_t Threads = 1;
};

bool isPowerOfTwo(uint32_t N) { return N != 0 && (N & (N - 1)) == 0; }

/// The pass table's names, comma-separated, with \p Last before the final
/// one.
std::string passNames(const char *Last) {
  std::string Out;
  std::span<const opt::PassInfo> Table = opt::passTable();
  for (size_t I = 0; I != Table.size(); ++I) {
    if (I)
      Out += ", ";
    if (I + 1 == Table.size())
      Out += Last;
    Out += Table[I].Name;
  }
  return Out;
}

void declareOptions(cli::OptionSet &P, Options &O) {
  O.Req.declare(P, cli::AnalysisRequest::AllOpts);
  P.flag("--baseline", O.Baseline, "run without instrumentation (timing)");
  P.str("--record", O.RecordPath,
        "F  record a run manifest to F (one file per shard)");
  P.flag("--print-ir", O.PrintIR, "echo the parsed program and exit");
  O.Src.declare(P, cli::ProgramSource::WorkloadOpts |
                       cli::ProgramSource::ObfuscateOpts);
  P.custom("--optimize", cli::ValueMode::Optional,
           "[=LIST]  run the rewrite-pass pipeline (" + passNames("") +
               ") and print its report; LIST restricts to those passes, in "
               "order",
           [&O](const std::string &V) {
             O.Optimize = true;
             std::string Cur;
             for (size_t I = 0; I <= V.size(); ++I) {
               if (I == V.size() || V[I] == ',') {
                 if (!Cur.empty()) {
                   if (!opt::isKnownPassName(Cur)) {
                     errs() << "unknown pass '" << Cur << "' (expected "
                            << passNames("or ") << ")\n";
                     return false;
                   }
                   O.OptimizePasses.push_back(Cur);
                   Cur.clear();
                 }
               } else {
                 Cur += V[I];
               }
             }
             return true;
           });
  P.str("--optimize-out", O.OptimizeOut,
        "F  write the rewritten program to F (implies --optimize)");
  P.number("--shards", O.Shards,
           "N  profile N sharded runs and merge them (default 1; with "
           "--clients each run's clients take two threads while the free "
           "cores cover two per worker, one while a core is free)",
           /*Min=*/1);
  P.number("--threads", O.Threads,
           "N  worker threads for --shards (with --clients a shard runs "
           "on three threads while the free cores cover two per worker, "
           "on two while a core is free, else on one)",
           /*Min=*/1);
}

bool parseArgs(cli::OptionSet &P, int argc, char **argv, Options &O) {
  if (!P.parse(argc, argv))
    return false;
  if (P.exitRequested())
    return true; // --help/--version already printed; skip validation.
  if (P.positionals().size() > 1) {
    errs() << "multiple input files\n";
    return false;
  }
  if (!P.positionals().empty())
    O.Src.File = P.positionals()[0];
  if (!isPowerOfTwo(uint32_t(O.Req.Slots)))
    errs() << "warning: --slots " << uint64_t(O.Req.Slots)
           << " is not a power of two; contexts fold by modulo either "
              "way, but results won't line up with the paper's s = 2^k "
              "sweeps\n";
  if (O.Baseline && O.Req.Clients.any()) {
    errs() << "--baseline runs without instrumentation; it cannot be "
              "combined with --clients\n";
    return false;
  }
  if (!O.OptimizeOut.empty())
    O.Optimize = true;
  return !O.Src.File.empty() || !O.Src.Workload.empty();
}

const char *statusName(const RunResult &R) {
  return R.Status == RunStatus::Finished ? "finished" : trapKindName(R.Trap);
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  cli::OptionSet Cli("lud-run", "<program.lud>");
  declareOptions(Cli, O);
  if (!parseArgs(Cli, argc, argv, O)) {
    Cli.usage();
    return 2;
  }
  if (Cli.exitRequested())
    return 0;

  int LoadRc = 0;
  std::unique_ptr<Module> M = O.Src.load(LoadRc);
  if (!M)
    return LoadRc;

  OutStream &OS = outs();
  if (O.PrintIR) {
    printModule(*M, OS);
    return 0;
  }

  SessionConfig SCfg = O.Req.sessionConfig();
  SCfg.Run.PrintStream = &OS;
  SCfg.RecordPath = O.RecordPath;

  if (O.Baseline) {
    SCfg.Instrument = false;
    ProfileSession Session(std::move(SCfg));
    TimedRun R = Session.run(*M);
    if (!Session.recordError().empty()) {
      errs() << Session.recordError() << "\n";
      return 1;
    }
    OS << "status: " << statusName(R.Run) << ", " << R.Run.ExecutedInstrs
       << " instructions, ";
    OS.printFixed(R.Seconds * 1e3, 2);
    OS << " ms, result " << R.Run.ReturnValue.asInt() << ", sink "
       << R.Run.SinkHash << "\n";
    if (!O.Req.emitStats(Session.stats()))
      return 1;
    return R.Run.Status == RunStatus::Finished ? 0 : 1;
  }

  // One session per shard: the slicing substrate's execution, plus the
  // requested clients' own beside it. --shards 1 (the default) is a plain
  // single session.
  ShardedSession SR = runShardedSession(*M, unsigned(O.Shards),
                                        std::move(SCfg), unsigned(O.Threads));
  if (!SR.Error.empty()) {
    errs() << SR.Error << "\n";
    return 1;
  }
  ProfileSession &Session = *SR.Session;
  const RunResult &Run = SR.Run;
  OS << "status: " << statusName(Run) << ", " << Run.ExecutedInstrs
     << " instructions, result " << Run.ReturnValue.asInt() << "\n";
  if (!O.RecordPath.empty())
    OS << "run manifest written to " << O.RecordPath
       << (O.Shards > 1 ? " (one .shardN file per shard)\n" : "\n");
  const SlicingProfiler &Prof = *Session.slicing();
  const DepGraph &G = Prof.graph();
  OS << "Gcost: " << uint64_t(G.numNodes()) << " nodes, "
     << uint64_t(G.numEdges()) << " edges, ";
  OS.printFixed(double(G.memoryFootprint().total()) / 1024.0, 1);
  OS << " KB, CR ";
  OS.printFixed(Prof.averageCR(), 3);
  OS << "\n";

  // Profiling is over: seal once, and every read path below — serializer,
  // cost model, dead-value sweep, optimizer — consumes the packed form.
  // (The profiler keeps its build graph for non-graph state such as
  // location activity; serialization and reports are byte-identical
  // either way.)
  FrozenGraph FG(G);
  if (obs::MetricsRegistry *Stats = Session.stats())
    FG.accountStats(*Stats);
  if (!O.Req.dumpGraph(FG, OS))
    return 1;

  renderAnalysisSections(*M, &Session, FG, O.Req.Spec, OS);
  if (O.Optimize) {
    // The pipeline proposes, validates (both engines) and commits or
    // rolls back each candidate on its own. A single session's profile is
    // exactly the one the pipeline would take of M, so its first round
    // starts from it; a sharded session's merged graph is not, so the
    // pipeline profiles M itself.
    opt::PipelineOptions PO;
    PO.Engine = O.Req.Engine;
    PO.Slicing = Session.config().Slicing;
    PO.Passes = O.OptimizePasses;
    PO.Stats = Session.stats();
    opt::PassManager PM(std::move(PO));
    opt::PipelineResult R =
        O.Shards == 1
            ? PM.run(*M, opt::ModuleProfile{FG, Prof.locationActivity(), Run})
            : PM.run(*M);
    OS << "\n";
    opt::renderOptimizeReport(R, OS);
    if (obs::MetricsRegistry *Stats = Session.stats())
      opt::PassManager::accountStats(R, *Stats);
    if (!O.OptimizeOut.empty()) {
      const Module &Out = R.M ? *R.M : *M;
      if (!cli::writeFile(O.OptimizeOut,
                          [&Out](OutStream &F) { printModule(Out, F); }))
        return 1;
      OS << "rewritten program written to " << O.OptimizeOut << "\n";
    }
  }
  if (O.Req.Spec.Dead)
    renderBloatMetrics(FG, Run.ExecutedInstrs, OS);
  if (!O.Req.emitStats(Session.stats()))
    return 1;
  return Run.Status == RunStatus::Finished ? 0 : 1;
}
