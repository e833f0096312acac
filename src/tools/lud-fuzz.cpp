//===- tools/lud-fuzz.cpp - Differential fuzzing harness -------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Randomized differential testing of every execution mode: live
/// single-thread, HotPathCaches flipped, threaded vs interpreted execution,
/// sharded at 2/4/8 shards and several thread counts, record -> replay, the
/// GraphIO round trip, and (on a fraction of runs) the rewrite-pass
/// pipeline's output-preservation contract, all cross-checked for
/// byte-identical Gcost and client reports.
///
///   lud-fuzz --runs=500 --seed=1                     # fuzz, exit 1 on bug
///   lud-fuzz --runs=200 --time-budget=120s           # bounded nightly job
///   lud-fuzz --check corpus/repro-s1-r37.lud --slots=8 --clients=copy
///                                                    # re-run one repro
///
/// Failures land in the corpus directory as a minimized .lud, the original
/// program, and a .txt note with the exact --check command line.
///
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "support/OutStream.h"
#include "tools/AnalysisRequest.h"
#include "tools/ProgramSource.h"

#include <charconv>
#include <string>

using namespace lud;

namespace {

/// Parses "90", "90s", or "2m" into seconds; returns false on anything
/// else.
bool parseTimeBudget(const std::string &S, double &Seconds) {
  if (S.empty())
    return false;
  std::string Num = S;
  double Scale = 1;
  char Last = S.back();
  if (Last == 's' || Last == 'm' || Last == 'h') {
    Num = S.substr(0, S.size() - 1);
    Scale = Last == 's' ? 1 : Last == 'm' ? 60 : 3600;
  }
  if (Num.empty())
    return false;
  uint64_t V = 0;
  auto [Ptr, Ec] = std::from_chars(Num.data(), Num.data() + Num.size(), V);
  if (Ec != std::errc() || Ptr != Num.data() + Num.size())
    return false;
  Seconds = double(V) * Scale;
  return true;
}

/// Parses "0"/"1" for the boolean knob flags.
bool parseBool(const std::string &Name, const std::string &S, bool &Out) {
  if (S == "0" || S == "1") {
    Out = S == "1";
    return true;
  }
  errs() << "option '" << Name << "' takes 0 or 1\n";
  return false;
}

} // namespace

int main(int argc, char **argv) {
  fuzz::FuzzOptions Opts;
  fuzz::OracleConfig Check;
  std::string CheckFile;
  bool NoMinimize = false;
  bool Quiet = false;

  cli::OptionSet P("lud-fuzz", "[--check <repro.lud>]");
  P.number("--runs", Opts.Runs, "N  fuzzing runs to attempt (default 100)",
           1);
  P.number("--seed", Opts.Seed, "N  base seed; run k uses split stream k",
           0);
  P.custom("--time-budget", cli::ValueMode::Required,
           "T  stop after T wall time (e.g. 120s, 2m)",
           [&](const std::string &S) {
             if (parseTimeBudget(S, Opts.TimeBudgetSeconds))
               return true;
             errs() << "option '--time-budget' wants a duration like 120s "
                       "or 2m, got '"
                    << S << "'\n";
             return false;
           });
  P.str("--corpus", Opts.CorpusDir,
        "DIR  where candidates and repros are written (default "
        "fuzz-corpus)");
  P.flag("--no-minimize", NoMinimize,
         "emit failures without ddmin reduction");
  P.flag("--quiet", Quiet, "suppress progress lines");
  P.custom("--check", cli::ValueMode::Required,
           "FILE  run the differential oracle once on FILE and exit",
           [&](const std::string &S) {
             CheckFile = S;
             return true;
           });
  // --slots, --clients and --engine configure --check's reference session
  // (the engines mode cross-checks the other engine); --clients defaults to
  // all.
  cli::AnalysisRequest Req;
  Req.Slots = Check.Slicing.ContextSlots;
  Req.Clients = Check.Clients;
  Req.Engine = Check.Engine;
  Req.declare(P, cli::AnalysisRequest::ClientOpts |
                     cli::AnalysisRequest::SlotOpts |
                     cli::AnalysisRequest::EngineOpts);
  P.custom("--thin-slicing", cli::ValueMode::Required,
           "0|1  thin slicing for --check (default 1)",
           [&](const std::string &S) {
             return parseBool("--thin-slicing", S, Check.Slicing.ThinSlicing);
           });
  P.custom("--context-sensitive", cli::ValueMode::Required,
           "0|1  context sensitivity for --check (default 1)",
           [&](const std::string &S) {
             return parseBool("--context-sensitive", S,
                              Check.Slicing.ContextSensitive);
           });
  P.custom("--hot-path-caches", cli::ValueMode::Required,
           "0|1  base HotPathCaches setting for --check (default 1)",
           [&](const std::string &S) {
             return parseBool("--hot-path-caches", S,
                              Check.Slicing.HotPathCaches);
           });
  // Everywhere else --caches is a report section, so lud-fuzz's old
  // spelling of this knob is refused by name rather than reinterpreted.
  P.custom("--caches", cli::ValueMode::Optional,
           "renamed to --hot-path-caches", [](const std::string &) {
             errs() << "option '--caches' was renamed to "
                       "'--hot-path-caches'\n";
             return false;
           });
  P.custom("--engines", cli::ValueMode::Required,
           "0|1  cross-check threaded vs interpreted execution (default 1)",
           [&](const std::string &S) {
             return parseBool("--engines", S, Check.CheckEngines);
           });
  P.custom("--optimize", cli::ValueMode::Required,
           "0|1  re-check the rewrite-pass pipeline's output preservation "
           "(default 0 for --check; fuzzing enables it on 1/4 of runs)",
           [&](const std::string &S) {
             return parseBool("--optimize", S, Check.CheckOptimize);
           });
  if (!P.parse(argc, argv)) {
    P.usage();
    return 2;
  }
  if (P.exitRequested())
    return 0;
  if (!P.positionals().empty()) {
    errs() << "lud-fuzz takes no positional arguments (use --check FILE)\n";
    P.usage();
    return 2;
  }

  Check.Slicing.ContextSlots = uint32_t(Req.Slots);
  Check.Clients = Req.Clients;
  Check.Engine = Req.Engine;

  if (!CheckFile.empty()) {
    cli::ProgramSource Src;
    Src.File = CheckFile;
    int LoadRc = 0;
    std::unique_ptr<Module> M = Src.load(LoadRc);
    if (!M)
      return 2;
    fuzz::OracleResult R = fuzz::runOracle(*M, Check);
    if (R.Ok) {
      outs() << "ok: all execution modes agree (" << fuzz::configFlags(Check)
             << ")\n";
      return 0;
    }
    outs() << "DIVERGENCE in mode " << R.Mode << ":\n" << R.Detail << "\n";
    return 1;
  }

  Opts.Minimize = !NoMinimize;
  Opts.Log = Quiet ? nullptr : &errs();
  fuzz::FuzzReport Report = fuzz::runFuzz(Opts);
  outs() << "lud-fuzz: " << Report.RunsDone << " runs, "
         << Report.Failures.size() << " divergence(s)";
  if (!Report.Failures.empty())
    outs() << " — repros in " << Opts.CorpusDir;
  outs() << "\n";
  return Report.Failures.empty() ? 0 : 1;
}
