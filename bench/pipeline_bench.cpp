//===- bench/pipeline_bench.cpp - One client session vs one per client ----===//
//
// What composing the clients buys, measured: one session running the
// slicing substrate plus all three client analyses (copy, nullness,
// typestate) versus one session per client. A session runs the substrate
// on the calling thread and its clients in executions beside it, so the
// single session should cost about the slowest of those executions; the
// N-session configuration pays the engine, the substrate and a client
// execution over and over. The row names keep their single_pass / n_pass spelling.
//
// The timing cases also cover every placement of the clients' executions
// (support/CoreBudget.h): two on threads of their own with two cores
// spare, one on one thread with one, inline after the substrate when every
// core is held; a sharded batch at twice the core count on one thread per
// core, the saturated caller the budget exists for; and a half-saturated
// batch, one shard per core on half as many threads.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "support/CoreBudget.h"
#include "workloads/ParallelDriver.h"

#include <benchmark/benchmark.h>

#include <algorithm>

using namespace lud;
using namespace lud::bench;

namespace {

constexpr ClientSet kAllClients = ClientSet::all();

struct PassResult {
  double Seconds = 0;
  size_t Nodes = 0;
  size_t Edges = 0;
};

PassResult singlePassSeconds(const Module &M) {
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  ProfileSession S(Cfg);
  PassResult R;
  R.Seconds = S.run(M).Seconds;
  R.Nodes = S.slicing()->graph().numNodes();
  R.Edges = S.slicing()->graph().numEdges();
  return R;
}

PassResult nPassSeconds(const Module &M) {
  PassResult R;
  for (ClientSet Client : {ClientSet::copy(), ClientSet::nullness(),
                           ClientSet::typestate()}) {
    SessionConfig Cfg;
    Cfg.Clients = Client;
    ProfileSession S(Cfg);
    R.Seconds += S.run(M).Seconds;
    R.Nodes = S.slicing()->graph().numNodes();
    R.Edges = S.slicing()->graph().numEdges();
  }
  return R;
}

void printTable() {
  const int64_t S = tableScale() / 2;
  std::printf("=== Profiler pipeline: 1 session (all clients) vs 3 "
              "sessions (scale %lld) ===\n",
              (long long)S);
  std::printf("%-12s %12s %12s %8s\n", "workload", "single-pass", "n-pass",
              "speedup");
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, S);
    PassResult One = singlePassSeconds(*W.M);
    PassResult N = nPassSeconds(*W.M);
    std::printf("%-12s %11.3fs %11.3fs %7.2fx\n", Name.c_str(), One.Seconds,
                N.Seconds, One.Seconds > 0 ? N.Seconds / One.Seconds : 0);
    emitJsonRow("pipeline/single_pass/" + Name, S, One.Seconds, One.Nodes,
                One.Edges);
    emitJsonRow("pipeline/n_pass/" + Name, S, N.Seconds, N.Nodes, N.Edges);
  }
  std::printf("\n");

  // Telemetry export: one representative composed session with the
  // registry on, dumped in the format --stats requested.
  if (statsEnabled()) {
    Workload W = buildWorkload("eclipse", S);
    SessionConfig Cfg;
    Cfg.Clients = kAllClients;
    Cfg.CollectStats = true;
    ProfileSession Sess(Cfg);
    Sess.run(*W.M);
    emitStats(Sess);
  }
}

/// Timing aspect: all clients in one composed pass.
void BM_SinglePassAllClients(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  for (auto _ : State) {
    SessionConfig Cfg;
    Cfg.Clients = kAllClients;
    ProfileSession S(Cfg);
    TimedRun R = S.run(*W.M);
    benchmark::DoNotOptimize(R.Run.ExecutedInstrs);
  }
}

/// Timing aspect: the same clients as three separate passes.
void BM_NPassPerClient(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  for (auto _ : State) {
    benchmark::DoNotOptimize(nPassSeconds(*W.M));
  }
}

/// Timing aspect: one all-clients session with 2, 1 or 0 cores spare
/// beside its own (the Arg): the clients run as two executions on threads
/// of their own, as one on one thread, or inline after the substrate.
/// Other callers' threads are modelled by holding the remaining cores.
void BM_ClientsBySpareCore(benchmark::State &State) {
  const unsigned Cores = CoreBudget::process().cores();
  const unsigned Spare = unsigned(State.range(0));
  if (Spare + 1 > Cores) {
    State.SkipWithError("not enough cores for this placement");
    return;
  }
  Workload W = buildWorkload("eclipse", tableScale() / 4);
  CoreBudget::Hold Others = CoreBudget::process().hold(Cores - 1 - Spare);
  for (auto _ : State) {
    SessionConfig Cfg;
    Cfg.Clients = kAllClients;
    ProfileSession S(Cfg);
    TimedRun R = S.run(*W.M);
    benchmark::DoNotOptimize(R.Run.ExecutedInstrs);
  }
}

/// Timing aspect: twice as many all-clients shards as cores, on one
/// thread per core, so the shards' own threads cover the cores.
void BM_ShardedClientsAtCoreCount(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 8);
  const unsigned Cores = CoreBudget::process().cores();
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  for (auto _ : State) {
    ShardedSession S = runShardedSession(*W.M, 2 * Cores, Cfg, Cores);
    benchmark::DoNotOptimize(S.TotalInstrs);
  }
}

/// Timing aspect: a half-saturated caller, as many all-clients shards as
/// cores on half as many threads (`--shards=<cores> --threads=<cores/2>`):
/// the cores the batch leaves free must not be promised to every shard's
/// clients twice over.
void BM_ShardedClientsAtHalfCores(benchmark::State &State) {
  Workload W = buildWorkload("eclipse", tableScale() / 8);
  const unsigned Cores = CoreBudget::process().cores();
  SessionConfig Cfg;
  Cfg.Clients = kAllClients;
  for (auto _ : State) {
    ShardedSession S =
        runShardedSession(*W.M, Cores, Cfg, std::max(Cores / 2, 1u));
    benchmark::DoNotOptimize(S.TotalInstrs);
  }
}

} // namespace

BENCHMARK(BM_SinglePassAllClients)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_NPassPerClient)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ClientsBySpareCore)
    ->ArgName("spare_cores")
    ->Arg(2)
    ->Arg(1)
    ->Arg(0)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ShardedClientsAtCoreCount)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK(BM_ShardedClientsAtHalfCores)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

int main(int argc, char **argv) {
  initJsonRows(&argc, argv);
  initStats(&argc, argv);
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
