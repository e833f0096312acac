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
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/OutStream.h"

#include <benchmark/benchmark.h>

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
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
