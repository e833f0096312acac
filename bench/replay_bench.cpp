//===- bench/replay_bench.cpp - Live vs record vs re-execute -------------===//
//
// The record/replay cost model, measured three ways per workload:
//
//   live        — the ordinary profiled run (all clients), recording off.
//                 With recording disabled the session instantiates exactly
//                 the unrecorded pipelines, so there is no recorder branch
//                 on the hot path to pay for.
//   record      — the same run with the hook counter composed ahead of the
//                 clients and one lud.run.v1 record written to an
//                 in-memory sink.
//   re-execute  — replaying that manifest: the run again, under the same
//                 analyses plus the hook counter, checked against its
//                 record.
//
// A second table puts the capture itself (the recorder as the whole
// pipeline, no substrate) against the uninstrumented baseline, on the
// threaded engine: the interpret spans of interleaved runs, per analogue
// and for the composed tier, and the capture/baseline ratio of their
// medians.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/OutStream.h"
#include "workloads/Composed.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

using namespace lud;
using namespace lud::bench;

namespace {

constexpr ClientSet kAllClients = ClientSet::all();

double liveSeconds(const Module &M, size_t *Nodes = nullptr,
                   size_t *Edges = nullptr) {
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  ProfileSession S(Cfg);
  double Sec = S.run(M).Seconds;
  if (Nodes)
    *Nodes = S.slicing()->graph().numNodes();
  if (Edges)
    *Edges = S.slicing()->graph().numEdges();
  return Sec;
}

double recordSeconds(const Module &M, std::string *ManifestOut) {
  StringOutStream Sink;
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  double Sec = S.run(M).Seconds;
  if (ManifestOut)
    *ManifestOut = Sink.str();
  return Sec;
}

double replaySeconds(const Module &M, const std::string &Manifest) {
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  ProfileSession S(Cfg);
  ReplayRun R = S.replay(M, Manifest);
  if (!R.Ok) {
    std::fprintf(stderr, "replay failed: %s\n", R.Error.c_str());
    std::exit(1);
  }
  return R.Seconds;
}

/// Interpret span of one threaded-engine run of \p M: the baseline, or the
/// same run captured by the recorder alone.
double baselineOrCaptureSeconds(const Module &M, bool Capture) {
  StringOutStream Sink;
  SessionConfig Cfg = SessionConfig::baseline();
  Cfg.Engine = EngineKind::Threaded;
  if (Capture)
    Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  return S.run(M).Seconds;
}

double median(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  return V[V.size() / 2];
}

/// One row of the capture table: \p Rounds interleaved baseline/capture
/// pairs over \p M.
void printCaptureRow(const std::string &Name, const Module &M, int64_t Scale,
                     int Rounds) {
  std::vector<double> Base, Cap;
  for (int I = 0; I != Rounds; ++I) {
    Base.push_back(baselineOrCaptureSeconds(M, false));
    Cap.push_back(baselineOrCaptureSeconds(M, true));
  }
  double B = median(Base), C = median(Cap);
  std::printf("%-12s %8lld %10.2fms %10.2fms %9.3fx\n", Name.c_str(),
              (long long)Scale, B * 1e3, C * 1e3, B > 0 ? C / B : 0);
  emitJsonRow("capture/baseline/" + Name, Scale, B, 0, 0, EngineKind::Threaded);
  emitJsonRow("capture/record/" + Name, Scale, C, 0, 0, EngineKind::Threaded);
}

void printCaptureTable() {
  constexpr int Rounds = 7;
  std::printf("=== Capture vs baseline: interpret span, threaded engine, "
              "median of %d interleaved pairs ===\n",
              Rounds);
  std::printf("%-12s %8s %12s %12s %10s\n", "workload", "scale", "baseline",
              "capture", "ratio");
  const int64_t S = tableScale() / 2;
  for (const std::string &Name : dacapoNames())
    printCaptureRow(Name, *buildWorkload(Name, S).M, S, Rounds);
  printCaptureRow("composed", *buildComposedWorkload(tableScale()).M,
                  tableScale(), Rounds);
  std::printf("\n");
}

void printTable() {
  const int64_t S = tableScale() / 2;
  std::printf("=== Record/replay: live vs record vs re-execute "
              "(scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s %10s %10s %12s %10s %10s\n", "workload", "live",
              "record", "re-execute", "rec-cost", "bytes");
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, S);
    size_t Nodes = 0, Edges = 0;
    double Live = liveSeconds(*W.M, &Nodes, &Edges);
    std::string Manifest;
    double Rec = recordSeconds(*W.M, &Manifest);
    double Rep = replaySeconds(*W.M, Manifest);
    std::printf("%-12s %9.3fs %9.3fs %11.3fs %9.2fx %10zu\n", Name.c_str(),
                Live, Rec, Rep, Live > 0 ? Rec / Live : 0, Manifest.size());
    emitJsonRow("replay/live/" + Name, S, Live, Nodes, Edges);
    emitJsonRow("replay/record/" + Name, S, Rec, Nodes, Edges);
    emitJsonRow("replay/reexecute/" + Name, S, Rep, Nodes, Edges);
  }
  std::printf("\n");

  // Telemetry export: a recording session's registry carries the trace.*
  // gauges (events per hook kind and per phase).
  if (statsEnabled()) {
    Workload W = buildWorkload("eclipse", S);
    StringOutStream Sink;
    SessionConfig Cfg;
    Cfg.Clients = kAllClients;
    Cfg.RecordSink = &Sink;
    Cfg.CollectStats = true;
    ProfileSession Sess(Cfg);
    Sess.run(*W.M);
    emitStats(Sess);
  }
}

/// Timing aspect: the live run, recording off (the overhead reference).
void BM_LiveAllClients(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  for (auto _ : State) {
    benchmark::DoNotOptimize(liveSeconds(*W.M));
  }
}

/// Timing aspect: the same run, recorded.
void BM_RecordAllClients(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  for (auto _ : State) {
    benchmark::DoNotOptimize(recordSeconds(*W.M, nullptr));
  }
}

/// Timing aspect: re-executing the recorded manifest.
void BM_ReplayAllClients(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  std::string Manifest;
  recordSeconds(*W.M, &Manifest);
  for (auto _ : State) {
    benchmark::DoNotOptimize(replaySeconds(*W.M, Manifest));
  }
}

} // namespace

BENCHMARK(BM_LiveAllClients)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_RecordAllClients)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ReplayAllClients)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  initJsonRows(&argc, argv);
  initStats(&argc, argv);
  printTable();
  printCaptureTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
