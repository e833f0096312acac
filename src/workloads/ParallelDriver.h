//===- workloads/ParallelDriver.h - Sharded profiling driver ---*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The sharded profiling driver: one module profiled in N shards over a
/// few threads, with one ProfileSession (and one Heap and engine) per
/// shard, folded back into a single session with ProfileSession::mergeFrom.
/// Live runs and replays share one shard loop: each shard either runs the
/// module or re-executes its manifest file, and the shards then fold into
/// shard 0. Nothing is shared between in-flight shards, so no locks sit on
/// the event hot path; the fold happens once, after every shard is done,
/// in shard-index order. Because the fold order is fixed and mergeFrom
/// re-interns nodes in the source graph's creation order, the merged
/// profile is identical whatever the thread count — one thread reproduces
/// the sequential result bit for bit.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_WORKLOADS_PARALLELDRIVER_H
#define LUD_WORKLOADS_PARALLELDRIVER_H

#include "workloads/Driver.h"

#include <string>
#include <vector>

namespace lud {

/// Result of profiling one module in shards. Each shard is a ProfileSession
/// (the substrate's execution plus, beside it, the enabled clients'), and
/// the fold covers client state too. Shard-index order plus
/// order-preserving client merges make the result independent of the
/// thread count.
struct ShardedSession {
  /// Outcome of shard 0 (shards are deterministic replicas).
  RunResult Run;
  /// Executed instructions summed over all shards.
  uint64_t TotalInstrs = 0;
  /// Wall time for the whole batch, pool included.
  double Seconds = 0;
  /// Hook events recorded (live + record) or re-executed (replay), summed
  /// over shards.
  uint64_t Events = 0;
  /// First record/replay failure across the shards ("" when all succeeded).
  /// Live runs always leave this empty.
  std::string Error;
  /// Shard 0's session after folding shards 1..N-1 into it in index order;
  /// null when Shards == 0, or when a sharded replay failed (a partially
  /// replayed session must not be consumed).
  std::unique_ptr<ProfileSession> Session;
};

/// Runs \p Shards sessions configured by \p Cfg over \p M, at most
/// \p Threads at once, and folds them into one. When Cfg.RecordPath is set
/// each shard records its manifest to its own file, shardTracePath(
/// RecordPath, S, Shards); a caller-provided Cfg.RecordSink is handed to
/// every shard unchanged, which is only safe when Shards == 1 or Threads ==
/// 1 (sequential shards append whole records, which replay as the merged
/// session).
ShardedSession runShardedSession(const Module &M, unsigned Shards,
                                 SessionConfig Cfg = {}, unsigned Threads = 4);

/// The replay twin of runShardedSession: one shard per manifest in
/// \p TracePaths, each re-executed by a fresh session configured by \p Cfg
/// (record settings stripped), at most \p Threads at once, folded in index
/// order. The result is identical to the live sharded run's and
/// independent of \p Threads. Error names the first failing file, in index
/// order, and Session is then null.
ShardedSession replayShardedSession(const Module &M,
                                    const std::vector<std::string> &TracePaths,
                                    SessionConfig Cfg = {},
                                    unsigned Threads = 4);

/// Per-shard manifest file name: \p Path itself for a single shard, otherwise
/// "<Path>.shardN". Both the recording and replaying sides derive names
/// through this, so a record/replay pair only shares the base path.
std::string shardTracePath(const std::string &Path, unsigned Shard,
                           unsigned Shards);

} // namespace lud

#endif // LUD_WORKLOADS_PARALLELDRIVER_H
