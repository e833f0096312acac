//===- workloads/ParallelDriver.cpp - Sharded profiling driver -------------===//

#include "workloads/ParallelDriver.h"

#include "obs/PhaseTimer.h"
#include "support/WorkerPool.h"
#include "trace/TraceRecorder.h"

#include <chrono>

using namespace lud;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

} // namespace

std::string lud::shardTracePath(const std::string &Path, unsigned Shard,
                                unsigned Shards) {
  return Shards <= 1 ? Path : Path + ".shard" + std::to_string(Shard);
}

ShardedSession lud::runShardedSession(const Module &M, unsigned Shards,
                                      SessionConfig Cfg, unsigned Threads) {
  ShardedSession Out;
  if (Shards == 0)
    return Out;
  std::vector<std::unique_ptr<ProfileSession>> Sessions(Shards);
  std::vector<RunResult> Results(Shards);
  auto T0 = std::chrono::steady_clock::now();
  forEachJob(Shards, Threads, [&](unsigned S) {
    SessionConfig SC = Cfg;
    if (!SC.RecordPath.empty() && !SC.RecordSink)
      SC.RecordPath = shardTracePath(Cfg.RecordPath, S, Shards);
    Sessions[S] = std::make_unique<ProfileSession>(std::move(SC));
    Results[S] = Sessions[S]->run(M).Run;
  });
  for (const auto &S : Sessions) {
    if (Out.Error.empty() && !S->recordError().empty())
      Out.Error = S->recordError();
    if (const trace::TraceRecorder *R = S->recorder())
      Out.Events += R->events();
  }
  // Fold in shard-index order: mergeFrom treats its argument as the later
  // of two sequential runs, so this reproduces one session observing the
  // shards back to back — for the substrate and every client alike.
  Out.Session = std::move(Sessions[0]);
  {
    obs::PhaseTimer Span(Out.Session->stats(), "merge");
    for (unsigned S = 1; S != Shards; ++S)
      Out.Session->mergeFrom(*Sessions[S]);
  }
  Out.Seconds = secondsSince(T0);
  Out.Run = Results[0];
  for (const RunResult &R : Results)
    Out.TotalInstrs += R.ExecutedInstrs;
  return Out;
}
