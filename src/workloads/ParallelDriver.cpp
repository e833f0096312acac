//===- workloads/ParallelDriver.cpp - Sharded profiling driver -------------===//

#include "workloads/ParallelDriver.h"

#include "obs/PhaseTimer.h"
#include "support/ForEachJob.h"
#include "trace/TraceRecorder.h"

#include <chrono>

using namespace lud;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// The one shard loop. With \p Manifests null each shard runs \p M live,
/// recording to its own file when Cfg asks; otherwise shard S re-executes
/// (*Manifests)[S]. The shards then fold into shard 0 in index order.
ShardedSession runShards(const Module &M, unsigned Shards, SessionConfig Cfg,
                         unsigned Threads,
                         const std::vector<std::string> *Manifests) {
  ShardedSession Out;
  if (Shards == 0)
    return Out;
  if (Manifests) {
    // A replaying shard must never re-record.
    Cfg.RecordPath.clear();
    Cfg.RecordSink = nullptr;
  }
  std::vector<std::unique_ptr<ProfileSession>> Sessions(Shards);
  std::vector<RunResult> Results(Shards);
  std::vector<uint64_t> Events(Shards);
  std::vector<std::string> Errors(Shards);
  auto T0 = std::chrono::steady_clock::now();
  forEachJob(Shards, Threads, [&](unsigned S) {
    SessionConfig SC = Cfg;
    if (!SC.RecordPath.empty() && !SC.RecordSink)
      SC.RecordPath = shardTracePath(Cfg.RecordPath, S, Shards);
    Sessions[S] = std::make_unique<ProfileSession>(std::move(SC));
    ProfileSession &PS = *Sessions[S];
    if (Manifests) {
      ReplayRun R = PS.replayFile(M, (*Manifests)[S]);
      Events[S] = R.Events;
      Errors[S] = R.Error;
      return;
    }
    TimedRun T = PS.run(M);
    Results[S] = T.Run;
    Errors[S] = T.Error.empty() ? PS.recordError() : T.Error;
    if (const trace::TraceRecorder *R = PS.recorder())
      Events[S] = R->events();
  });
  for (unsigned S = 0; S != Shards; ++S) {
    // Events count even for failed shards (partial replays are real work).
    Out.Events += Events[S];
    if (Out.Error.empty())
      Out.Error = Errors[S];
  }
  // A half-replayed shard must not fold into the result. (A live shard
  // whose record file failed to open still ran in full.)
  if (Manifests && !Out.Error.empty()) {
    Out.Seconds = secondsSince(T0);
    return Out;
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

} // namespace

std::string lud::shardTracePath(const std::string &Path, unsigned Shard,
                                unsigned Shards) {
  return Shards <= 1 ? Path : Path + ".shard" + std::to_string(Shard);
}

ShardedSession lud::runShardedSession(const Module &M, unsigned Shards,
                                      SessionConfig Cfg, unsigned Threads) {
  return runShards(M, Shards, std::move(Cfg), Threads, nullptr);
}

ShardedSession
lud::replayShardedSession(const Module &M,
                          const std::vector<std::string> &TracePaths,
                          SessionConfig Cfg, unsigned Threads) {
  return runShards(M, unsigned(TracePaths.size()), std::move(Cfg), Threads,
                   &TracePaths);
}
