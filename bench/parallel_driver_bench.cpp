//===- bench/parallel_driver_bench.cpp - Sharded driver throughput ---------===//
//
// Throughput of parallel profiling against the sequential baseline: the
// whole DaCapo suite profiled back to back on one thread versus one session
// per workload on the pool, and one workload profiled in repeated shards
// with the per-shard sessions merged (runShardedSession). The merged
// graph's node and edge counts are printed next to the sequential ones —
// they must match, whatever the thread count (the fold is in shard-index
// order). Every run goes through ProfileSession, so --engine / LUD_ENGINE
// picks the engine.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "support/ForEachJob.h"
#include "workloads/ParallelDriver.h"

#include <benchmark/benchmark.h>

#include <chrono>
#include <thread>

using namespace lud;
using namespace lud::bench;

namespace {

unsigned poolThreads() {
  if (const char *E = std::getenv("LUD_THREADS"))
    return unsigned(std::strtoul(E, nullptr, 10));
  unsigned HW = std::thread::hardware_concurrency();
  return HW ? HW : 4;
}

/// Profiles every module in \p Mods, one substrate-only session each, at
/// most \p Threads at once. Returns the batch's wall time.
double profileBatch(const std::vector<const Module *> &Mods, unsigned Threads,
                    std::vector<ProfiledRun> &Runs) {
  Runs.clear();
  Runs.resize(Mods.size());
  auto T0 = std::chrono::steady_clock::now();
  forEachJob(unsigned(Mods.size()), Threads,
             [&](unsigned J) { Runs[J] = profiledRun(*Mods[J]); });
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - T0)
      .count();
}

void printTable() {
  const int64_t S = tableScale() / 4;
  const unsigned Threads = poolThreads();
  std::printf("=== Parallel driver: suite batch + sharded merge "
              "(scale %lld, %u threads) ===\n",
              (long long)S, Threads);

  // Whole-suite batch: every DaCapo workload once.
  std::vector<Workload> Ws;
  std::vector<const Module *> Mods;
  for (const std::string &Name : dacapoNames()) {
    Ws.push_back(buildWorkload(Name, S));
    Mods.push_back(Ws.back().M.get());
  }
  std::vector<ProfiledRun> RSeq, RPar;
  double SeqSeconds = profileBatch(Mods, 1, RSeq);
  double ParSeconds = profileBatch(Mods, Threads, RPar);
  std::printf("suite of %zu: sequential %.3fs, %u threads %.3fs (%.2fx)\n",
              Mods.size(), SeqSeconds, Threads, ParSeconds,
              ParSeconds > 0 ? SeqSeconds / ParSeconds : 0);
  size_t SuiteNodes = 0, SuiteEdges = 0;
  for (const ProfiledRun &R : RPar) {
    SuiteNodes += R.Prof->graph().numNodes();
    SuiteEdges += R.Prof->graph().numEdges();
  }
  emitJsonRow("parallel_driver/suite_seq", S, SeqSeconds, SuiteNodes,
              SuiteEdges);
  emitJsonRow("parallel_driver/suite_par", S, ParSeconds, SuiteNodes,
              SuiteEdges);

  // Sharded merge on one workload: graphs must agree with sequential.
  Workload W = buildWorkload("eclipse", S);
  const unsigned Shards = 8;
  ShardedSession A =
      runShardedSession(*W.M, Shards, SessionConfig::profiled(), 1);
  ShardedSession B =
      runShardedSession(*W.M, Shards, SessionConfig::profiled(), Threads);
  const DepGraph &GA = A.Session->slicing()->graph();
  const DepGraph &GB = B.Session->slicing()->graph();
  std::printf("eclipse x%u shards: 1 thread %.3fs (N=%zu E=%zu), "
              "%u threads %.3fs (N=%zu E=%zu) %s\n\n",
              Shards, A.Seconds, GA.numNodes(), GA.numEdges(), Threads,
              B.Seconds, GB.numNodes(), GB.numEdges(),
              GA.numNodes() == GB.numNodes() && GA.numEdges() == GB.numEdges()
                  ? "[graphs match]"
                  : "[GRAPH MISMATCH]");
  emitJsonRow("parallel_driver/eclipse_shards", S, B.Seconds, GB.numNodes(),
              GB.numEdges());

  // Telemetry export: a sharded session with the registry on, folded over
  // the pool, dumped in the format --stats requested. The registry after
  // the fold is thread-count independent (wall-time metrics aside).
  if (statsEnabled()) {
    SessionConfig SCfg;
    SCfg.CollectStats = true;
    ShardedSession SS = runShardedSession(*W.M, Shards, SCfg, Threads);
    emitStats(*SS.Session);
  }
}

/// Timing aspect: the full suite batch at a given thread count.
void BM_SuiteBatch(benchmark::State &State) {
  const int64_t S = tableScale() / 8;
  std::vector<Workload> Ws;
  std::vector<const Module *> Mods;
  for (const std::string &Name : dacapoNames()) {
    Ws.push_back(buildWorkload(Name, S));
    Mods.push_back(Ws.back().M.get());
  }
  const unsigned Threads = unsigned(State.range(0));
  std::vector<ProfiledRun> Runs;
  for (auto _ : State)
    benchmark::DoNotOptimize(profileBatch(Mods, Threads, Runs));
  State.counters["threads"] = double(Threads);
}

} // namespace

BENCHMARK(BM_SuiteBatch)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

int main(int argc, char **argv) {
  initJsonRows(&argc, argv);
  initStats(&argc, argv);
  printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
