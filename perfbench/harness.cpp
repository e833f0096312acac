//===- perfbench/harness.cpp - Benchmark harness ----------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's in-process half. run.py drives the real tools for the
/// end-to-end numbers; this binary covers what they cannot:
///
///   lud-bench-harness compose <scale> <out.lud>
///       Writes the composed tier as textual IR (buildComposedWorkload +
///       printModule); lud-gen only emits the 18 analogues.
///
///   lud-bench-harness trace --scale=N --programs=a,b,...
///                           --outputs=DIR --summary=FILE [--spans=0|1]
///                           [--obfuscate-seed=N] [--profile-all]
///                           [--optimize-passes=LIST]
///       The traced run. It generates the workload in-process and runs
///       every job kind the tools run (baseline, profile, clients,
///       capture, replay, optimize) through the same public library calls
///       the tools make, with a span around each call. Spans stay in memory
///       and go to FILE as JSON at the end; each job's stdout-equivalent
///       text goes to DIR/<program>.<kind>.out so run.py checks it exactly
///       like a tool's output. With --spans=0 only the total wall is kept,
///       which gives the tracing overhead.
///
/// Spans never nest inside a job, so a span's duration is its self time.
/// Calls that bundle several layers (a profiled run is engine plus
/// substrate) are split by run.py from the cumulative configurations this
/// harness also runs: uninstrumented, substrate, substrate+clients,
/// recorder.
///
//===----------------------------------------------------------------------===//

#include "analysis/CacheCost.h"
#include "analysis/Clients.h"
#include "analysis/CostModel.h"
#include "analysis/DeadValues.h"
#include "analysis/PassManager.h"
#include "analysis/Report.h"
#include "ir/Obfuscate.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"
#include "trace/TraceRecorder.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdlib>
#include <cstdio>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

using namespace lud;

namespace {

using Clock = std::chrono::steady_clock;

/// In-memory span store. A job is one tool invocation's worth of work; a
/// span is one public library call inside it.
class Recorder {
public:
  explicit Recorder(bool On) : On(On), T0(Clock::now()) {}

  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                T0)
        .count();
  }

  void beginJob(const std::string &Kind, const std::string &Program) {
    if (On)
      Jobs.push_back({Kind, Program, now(), 0});
  }
  void endJob() {
    if (On)
      Jobs.back().DurNs = now() - Jobs.back().StartNs;
  }

  /// Runs \p F inside a span named \p Name and returns its result.
  template <typename FnT> auto span(const char *Name, FnT &&F) {
    int64_t Start = On ? now() : 0;
    if constexpr (std::is_void_v<decltype(F())>) {
      F();
      close(Name, Start);
    } else {
      auto R = F();
      close(Name, Start);
      return R;
    }
  }

  /// Attaches a count to the span that closed last.
  void arg(const char *Key, uint64_t V) {
    if (On)
      Spans.back().Args.emplace_back(Key, V);
  }

  void writeJson(std::FILE *F, int64_t WallNs) const;

private:
  struct Job {
    std::string Kind, Program;
    int64_t StartNs, DurNs;
  };
  struct Span {
    std::string Name;
    size_t Job;
    int64_t StartNs, DurNs;
    std::vector<std::pair<std::string, uint64_t>> Args;
  };

  void close(const char *Name, int64_t Start) {
    if (On)
      Spans.push_back({Name, Jobs.size() - 1, Start, now() - Start, {}});
  }

  bool On;
  Clock::time_point T0;
  // Deques: appending never relocates earlier records, so recording a span
  // costs the same whether it is the first or the thousandth.
  std::deque<Job> Jobs;
  std::deque<Span> Spans;
};

void Recorder::writeJson(std::FILE *F, int64_t WallNs) const {
  // Names are identifiers and program names; nothing needs escaping.
  std::fprintf(F, "{\"wall_ns\": %lld,\n\"jobs\": [", (long long)WallNs);
  for (size_t I = 0; I != Jobs.size(); ++I)
    std::fprintf(F, "%s\n{\"kind\": \"%s\", \"program\": \"%s\", "
                    "\"start_ns\": %lld, \"dur_ns\": %lld}",
                 I ? "," : "", Jobs[I].Kind.c_str(), Jobs[I].Program.c_str(),
                 (long long)Jobs[I].StartNs, (long long)Jobs[I].DurNs);
  std::fprintf(F, "],\n\"spans\": [");
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(F, "%s\n{\"name\": \"%s\", \"job\": %zu, \"start_ns\": %lld, "
                    "\"dur_ns\": %lld, \"args\": {",
                 I ? "," : "", S.Name.c_str(), S.Job, (long long)S.StartNs,
                 (long long)S.DurNs);
    for (size_t A = 0; A != S.Args.size(); ++A)
      std::fprintf(F, "%s\"%s\": %llu", A ? ", " : "", S.Args[A].first.c_str(),
                   (unsigned long long)S.Args[A].second);
    std::fprintf(F, "}}");
  }
  std::fprintf(F, "]}\n");
}

struct Options {
  int64_t Scale = 0;
  std::vector<std::string> Programs;
  std::string Outputs;
  std::string Summary;
  bool Spans = true;
  bool Obfuscate = false;
  int64_t ObfSeed = 0;
  bool ProfileAll = false;
  std::vector<std::string> OptimizePasses;
};

std::vector<std::string> splitList(const std::string &S) {
  std::vector<std::string> Out;
  std::string Cur;
  for (size_t I = 0; I <= S.size(); ++I) {
    if (I == S.size() || S[I] == ',') {
      if (!Cur.empty())
        Out.push_back(Cur);
      Cur.clear();
    } else {
      Cur += S[I];
    }
  }
  return Out;
}

bool parseInt(const std::string &S, int64_t &Out) {
  auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), Out);
  return Ec == std::errc() && Ptr == S.data() + S.size() && !S.empty() &&
         Out >= 0;
}

bool parseTraceArgs(int Argc, char **Argv, Options &O) {
  for (int I = 2; I < Argc; ++I) {
    std::string A = Argv[I];
    size_t Eq = A.find('=');
    std::string Key = A.substr(0, Eq);
    std::string Val = Eq == std::string::npos ? "" : A.substr(Eq + 1);
    bool Ok = true;
    if (Key == "--scale")
      Ok = parseInt(Val, O.Scale) && O.Scale > 0;
    else if (Key == "--programs")
      O.Programs = splitList(Val);
    else if (Key == "--outputs")
      O.Outputs = Val;
    else if (Key == "--summary")
      O.Summary = Val;
    else if (Key == "--spans")
      Ok = (Val == "0" || Val == "1") && ((O.Spans = Val == "1"), true);
    else if (Key == "--obfuscate-seed")
      Ok = parseInt(Val, O.ObfSeed) && ((O.Obfuscate = true), true);
    else if (Key == "--profile-all")
      O.ProfileAll = true;
    else if (Key == "--optimize-passes")
      O.OptimizePasses = splitList(Val);
    else
      Ok = false;
    if (!Ok) {
      std::fprintf(stderr, "lud-bench-harness: bad argument '%s'\n", Argv[I]);
      return false;
    }
  }
  if (O.Scale == 0 || O.Programs.empty() || O.Outputs.empty() ||
      O.Summary.empty()) {
    std::fprintf(stderr, "lud-bench-harness trace: --scale, --programs, "
                         "--outputs and --summary are required\n");
    return false;
  }
  return true;
}

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool Ok = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  return std::fclose(F) == 0 && Ok;
}

Workload generate(const std::string &Program, int64_t Scale) {
  return Program == "composed" ? buildComposedWorkload(Scale)
                               : buildWorkload(Program, Scale);
}

std::string printed(const Module &M) {
  StringOutStream OS;
  printModule(M, OS);
  return OS.str();
}

/// The traced run. Job order and report flags mirror run.py's untraced
/// pass, and each job's text mirrors the tool it stands for.
class TracedRun {
public:
  explicit TracedRun(const Options &O) : O(O), R(O.Spans) {}

  int run();

private:
  /// Parses \p Text inside an ir.parse span; aborts the harness on failure
  /// (the inputs are the harness's own output).
  std::unique_ptr<Module> parse(const std::string &Text);
  RunResult execute(const Module &M, EngineKind Engine, const char *Span);
  void setup(const std::string &P);
  void baseline(const std::string &P);
  void interp(const std::string &P);
  void profile(const std::string &P, const char *Kind, ClientSet Clients);
  void captureAndReplay(const std::string &P);
  void optimize(const std::string &P);
  void oracle(const std::string &P);

  /// Renders the report sections exactly as lud-run/lud-replay do, one
  /// span per analysis call.
  void reportSections(const Module &M, const ProfileSession &S,
                      const FrozenGraph &FG, uint64_t DeadDenominator,
                      bool Extras, OutStream &OS);
  FrozenGraph seal(const DepGraph &G);

  void output(const std::string &P, const char *Kind, std::string Text) {
    Outputs.emplace_back(O.Outputs + "/" + P + "." + Kind + ".out",
                         std::move(Text));
  }

  const Options &O;
  Recorder R;
  std::map<std::string, std::string> Texts, Originals, Rewritten;
  std::vector<std::pair<std::string, std::string>> Outputs;
};

std::unique_ptr<Module> TracedRun::parse(const std::string &Text) {
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M =
      R.span("ir.parse", [&] { return parseModule(Text, Errors); });
  R.arg("bytes", Text.size());
  if (!M) {
    std::fprintf(stderr, "lud-bench-harness: parse failed: %s\n",
                 Errors.empty() ? "?" : Errors[0].c_str());
    std::exit(1);
  }
  return M;
}

RunResult TracedRun::execute(const Module &M, EngineKind Engine,
                             const char *Span) {
  RunResult Run = R.span(Span, [&] {
    SessionConfig Cfg;
    Cfg.Engine = Engine;
    Cfg.Instrument = false;
    ProfileSession S(std::move(Cfg));
    return S.run(M).Run;
  });
  R.arg("instrs", Run.ExecutedInstrs);
  return Run;
}

std::string statusLine(const RunResult &Run) {
  StringOutStream OS;
  OS << "status: "
     << (Run.Status == RunStatus::Finished ? "finished"
                                           : trapKindName(Run.Trap))
     << ", " << Run.ExecutedInstrs << " instructions, 0.00 ms, result "
     << Run.ReturnValue.asInt() << ", sink " << Run.SinkHash << "\n";
  return OS.str();
}

void TracedRun::setup(const std::string &P) {
  // Everything that is freed or stored goes out of scope after endJob, so
  // the job's wall holds only the spanned calls.
  std::string Original, Manifest, Text;
  std::unique_ptr<Module> Obfuscated;
  R.beginJob("setup", P);
  Workload W =
      R.span("workloads.generate", [&] { return generate(P, O.Scale); });
  if (O.Obfuscate) {
    Original = R.span("ir.print", [&] { return printed(*W.M); });
    R.arg("bytes", Original.size());
    ObfuscateOptions Opts;
    Opts.Junk = Opts.Opaque = Opts.Strings = true;
    Opts.Seed = uint64_t(O.ObfSeed);
    Obfuscated = R.span("ir.obfuscate", [&] {
      ObfuscationResult Res = obfuscateModule(*W.M, Opts);
      for (const ObfSiteTag &T : Res.Manifest)
        Manifest += std::string(obfKindName(T.Kind)) + "\t" + T.Description +
                    "\n";
      return std::move(Res.M);
    });
  }
  Text = R.span("ir.print", [&] {
    return printed(Obfuscated ? *Obfuscated : *W.M);
  });
  R.arg("bytes", Text.size());
  R.endJob();
  Texts[P] = std::move(Text);
  if (O.Obfuscate) {
    Originals[P] = std::move(Original);
    Outputs.emplace_back(O.Outputs + "/" + P + ".manifest",
                         std::move(Manifest));
  }
}

void TracedRun::baseline(const std::string &P) {
  R.beginJob("baseline", P);
  std::unique_ptr<Module> M = parse(Texts[P]);
  std::string Out =
      statusLine(execute(*M, EngineKind::Threaded, "runtime.run"));
  R.endJob();
  output(P, "baseline", std::move(Out));
}

void TracedRun::interp(const std::string &P) {
  R.beginJob("interp", P);
  std::unique_ptr<Module> M = parse(Texts[P]);
  std::string Out =
      statusLine(execute(*M, EngineKind::Interp, "runtime.run_interp"));
  R.endJob();
  output(P, "interp", std::move(Out));
}

FrozenGraph TracedRun::seal(const DepGraph &G) {
  FrozenGraph FG = R.span("profiling.seal", [&] { return FrozenGraph(G); });
  R.arg("nodes", FG.numNodes());
  R.arg("frozen_bytes", FG.memoryFootprint().total());
  return FG;
}

void TracedRun::reportSections(const Module &M, const ProfileSession &S,
                               const FrozenGraph &FG, uint64_t DeadDenominator,
                               bool Extras, OutStream &OS) {
  const SlicingProfiler &Prof = *S.slicing();
  ClientOptions Client;
  CostModel CM = R.span("analysis.report", [&] {
    CostModel CM(FG);
    ReportOptions Opts;
    Opts.Depth = Client.Depth;
    LowUtilityReport Report(CM, M, Opts);
    OS << "\n=== low-utility data structures ===\n";
    Report.print(OS, Client.TopK);
    return CM;
  });
  R.arg("nodes", FG.numNodes());
  if (Extras) {
    R.span("analysis.extras", [&] {
      OS << "\n=== locations rewritten before read ===\n";
      printOverwrites(rankOverwrites(Prof, M, Client), OS, Client.TopK);
      OS << "\n=== always-constant predicates ===\n";
      printConstantPredicates(findConstantPredicates(Prof, CM, M, Client), OS,
                              Client.TopK);
      OS << "\n=== costliest method return values ===\n";
      printMethodCosts(computeMethodCosts(CM, M), OS, Client.TopK);
      OS << "\n=== cache effectiveness (least effective first) ===\n";
      printCacheScores(rankCacheEffectiveness(CM, M), OS, Client.TopK);
    });
    R.arg("nodes", FG.numNodes());
  }
  if (!S.config().Clients.empty()) {
    R.span("analysis.client_reports",
           [&] { S.printClientReports(M, OS, Client.TopK); });
  }
  R.span("analysis.dead", [&] {
    DeadValueAnalysis DV = computeDeadValues(FG, DeadDenominator);
    OS << "\n=== bloat metrics ===\nIPD ";
    OS.printFixed(100.0 * DV.Metrics.ipd(), 1);
    OS << "%   IPP ";
    OS.printFixed(100.0 * DV.Metrics.ipp(), 1);
    OS << "%   NLD ";
    OS.printFixed(100.0 * DV.Metrics.nld(), 1);
    OS << "%\n";
  });
  R.arg("nodes", FG.numNodes());
}

/// lud-run's status and Gcost summary lines for a profiled run; returns
/// the build graph's footprint in bytes, which the Gcost line prints.
uint64_t summaryLines(const RunResult &Run, const ProfileSession &S,
                      OutStream &OS) {
  OS << "status: "
     << (Run.Status == RunStatus::Finished ? "finished"
                                           : trapKindName(Run.Trap))
     << ", " << Run.ExecutedInstrs << " instructions, result "
     << Run.ReturnValue.asInt() << "\n";
  const DepGraph &G = S.slicing()->graph();
  uint64_t Bytes = G.memoryFootprint().total();
  OS << "Gcost: " << uint64_t(G.numNodes()) << " nodes, "
     << uint64_t(G.numEdges()) << " edges, ";
  OS.printFixed(double(Bytes) / 1024.0, 1);
  OS << " KB, CR ";
  OS.printFixed(S.slicing()->averageCR(), 3);
  OS << "\n";
  return Bytes;
}

void TracedRun::profile(const std::string &P, const char *Kind,
                        ClientSet Clients) {
  R.beginJob(Kind, P);
  std::unique_ptr<Module> M = parse(Texts[P]);
  SessionConfig Cfg;
  Cfg.Engine = EngineKind::Threaded;
  Cfg.Clients = Clients;
  ProfileSession S(std::move(Cfg));
  bool WithClients = !Clients.empty();
  RunResult Run = R.span(WithClients ? "profiling.run_clients"
                                     : "profiling.run",
                         [&] { return S.run(*M).Run; });
  const DepGraph &G = S.slicing()->graph();
  R.arg("instrs", Run.ExecutedInstrs);
  R.arg("nodes", G.numNodes());
  R.arg("edges", G.numEdges());
  StringOutStream OS;
  R.arg("build_bytes", R.span("profiling.summary",
                              [&] { return summaryLines(Run, S, OS); }));
  FrozenGraph FG = seal(G);
  reportSections(*M, S, FG, Run.ExecutedInstrs, O.ProfileAll || WithClients,
                 OS);
  R.endJob();
  output(P, Kind, OS.str());
}

void TracedRun::captureAndReplay(const std::string &P) {
  std::string TracePath = O.Outputs + "/" + P + ".trace";
  R.beginJob("capture", P);
  {
    std::unique_ptr<Module> M = parse(Texts[P]);
    uint64_t Events = 0, Bytes = 0;
    RunResult Run = R.span("trace.record", [&] {
      SessionConfig Cfg;
      Cfg.Engine = EngineKind::Threaded;
      Cfg.Instrument = false;
      Cfg.RecordPath = TracePath;
      auto S = std::make_unique<ProfileSession>(std::move(Cfg));
      RunResult Run = S->run(*M).Run;
      if (!S->recordError().empty()) {
        std::fprintf(stderr, "lud-bench-harness: %s\n",
                     S->recordError().c_str());
        std::exit(1);
      }
      Events = S->recorder()->events();
      Bytes = S->recorder()->bytes();
      S.reset(); // Closes the trace file, as the tool's exit does.
      return Run;
    });
    R.arg("instrs", Run.ExecutedInstrs);
    R.arg("events", Events);
    R.arg("bytes", Bytes);
    std::string Out = statusLine(Run);
    R.endJob();
    output(P, "capture", std::move(Out));
  }

  R.beginJob("replay", P);
  std::unique_ptr<Module> M = parse(Texts[P]);
  ProfileSession S;
  ReplayRun RR =
      R.span("trace.replay", [&] { return S.replayFile(*M, TracePath); });
  R.arg("events", RR.Events);
  if (!RR.Ok) {
    std::fprintf(stderr, "lud-bench-harness: replay of %s failed: %s\n",
                 P.c_str(), RR.Error.c_str());
    std::exit(1);
  }
  FrozenGraph FG = seal(S.slicing()->graph());
  StringOutStream OS;
  R.span("profiling.summary", [&] {
    OS << "replayed " << RR.Events << " events from 1 trace\n";
    OS << "Gcost: " << uint64_t(FG.numNodes()) << " nodes, "
       << uint64_t(FG.numEdges()) << " edges, sealed ";
    OS.printFixed(double(FG.memoryFootprint().total()) / 1024.0, 1);
    OS << " KB, CR ";
    OS.printFixed(S.slicing()->averageCR(), 3);
    OS << "\n";
  });
  // Replay has no run, so the bloat denominator is the graph's own
  // frequency total, as in lud-replay.
  reportSections(*M, S, FG, FG.totalFreq(), false, OS);
  R.endJob();
  output(P, "replay", OS.str());
  std::remove(TracePath.c_str());
}

void TracedRun::optimize(const std::string &P) {
  R.beginJob("optimize", P);
  std::unique_ptr<Module> M = parse(Texts[P]);
  // lud-run --report --optimize: the human-facing report session first,
  // then the pipeline, which profiles and validates on its own.
  SessionConfig Cfg;
  Cfg.Engine = EngineKind::Threaded;
  ProfileSession S(std::move(Cfg));
  RunResult Run = R.span("profiling.run", [&] { return S.run(*M).Run; });
  R.arg("instrs", Run.ExecutedInstrs);
  StringOutStream OS;
  R.span("profiling.summary", [&] { summaryLines(Run, S, OS); });
  FrozenGraph FG = seal(S.slicing()->graph());
  R.span("analysis.report", [&] {
    CostModel CM(FG);
    ClientOptions Client;
    ReportOptions Opts;
    Opts.Depth = Client.Depth;
    LowUtilityReport Report(CM, *M, Opts);
    OS << "\n=== low-utility data structures ===\n";
    Report.print(OS, Client.TopK);
  });
  R.arg("nodes", FG.numNodes());
  opt::PipelineResult PR = R.span("analysis.optimize", [&] {
    opt::PipelineOptions PO;
    PO.Engine = EngineKind::Threaded;
    PO.Passes = O.OptimizePasses;
    opt::PassManager PM(std::move(PO));
    return PM.run(*M);
  });
  size_t RolledBack = 0;
  for (const auto &[Name, PS] : PR.PerPass)
    RolledBack += PS.RolledBack;
  R.arg("applied", PR.applied());
  R.arg("rolled_back", RolledBack);
  R.arg("candidates", PR.Outcomes.size());
  R.arg("instrs_before", PR.InstrsBefore);
  R.arg("instrs_after", PR.InstrsAfter);
  R.span("analysis.optimize_report", [&] {
    OS << "\n";
    opt::renderOptimizeReport(PR, OS);
  });
  Rewritten[P] = R.span("ir.print", [&] { return printed(PR.M ? *PR.M : *M); });
  R.arg("bytes", Rewritten[P].size());
  R.endJob();
  output(P, "optimize", OS.str());
}

void TracedRun::oracle(const std::string &P) {
  R.beginJob("oracle", P);
  std::unique_ptr<Module> M = parse(Rewritten[P]);
  std::string Out =
      statusLine(execute(*M, EngineKind::Threaded, "runtime.run"));
  R.endJob();
  output(P, "oracle", std::move(Out));
  if (O.Obfuscate) {
    R.beginJob("oracle", P);
    std::unique_ptr<Module> Orig = parse(Originals[P]);
    Out = statusLine(execute(*Orig, EngineKind::Threaded, "runtime.run"));
    R.endJob();
    output(P, "original", std::move(Out));
  }
}

int TracedRun::run() {
  int64_t Start = R.now();
  for (const std::string &P : O.Programs)
    setup(P);
  for (const std::string &P : O.Programs)
    baseline(P);
  for (const std::string &P : O.Programs)
    interp(P);
  for (const std::string &P : O.Programs)
    profile(P, "profile", ClientSet());
  for (const std::string &P : O.Programs)
    profile(P, "clients", ClientSet::all());
  for (const std::string &P : O.Programs)
    captureAndReplay(P);
  for (const std::string &P : O.Programs)
    optimize(P);
  for (const std::string &P : O.Programs)
    oracle(P);
  int64_t Wall = R.now() - Start;

  for (const auto &[Path, Text] : Outputs) {
    if (!writeFile(Path, Text)) {
      std::fprintf(stderr, "lud-bench-harness: cannot write '%s'\n",
                   Path.c_str());
      return 1;
    }
  }
  std::FILE *F = std::fopen(O.Summary.c_str(), "wb");
  if (!F) {
    std::fprintf(stderr, "lud-bench-harness: cannot write '%s'\n",
                 O.Summary.c_str());
    return 1;
  }
  R.writeJson(F, Wall);
  return std::fclose(F) == 0 ? 0 : 1;
}

int compose(int Argc, char **Argv) {
  int64_t Scale = 0;
  if (Argc != 4 || !parseInt(Argv[2], Scale) || Scale == 0) {
    std::fprintf(stderr,
                 "usage: lud-bench-harness compose <scale> <out.lud>\n");
    return 2;
  }
  if (!writeFile(Argv[3], printed(*buildComposedWorkload(Scale).M))) {
    std::fprintf(stderr, "lud-bench-harness: cannot write '%s'\n", Argv[3]);
    return 1;
  }
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Cmd = Argc > 1 ? Argv[1] : "";
  if (Cmd == "compose")
    return compose(Argc, Argv);
  if (Cmd == "trace") {
    Options O;
    if (!parseTraceArgs(Argc, Argv, O))
      return 2;
    const std::vector<std::string> &Names = dacapoNames();
    for (const std::string &P : O.Programs) {
      if (P != "composed" &&
          std::find(Names.begin(), Names.end(), P) == Names.end()) {
        std::fprintf(stderr, "lud-bench-harness: unknown program '%s'\n",
                     P.c_str());
        return 2;
      }
    }
    return TracedRun(O).run();
  }
  std::fprintf(stderr, "usage: lud-bench-harness compose|trace ...\n");
  return 2;
}
