//===- fuzz/Oracle.h - Differential execution-mode oracle ------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential oracle behind lud-fuzz: one module, every execution
/// mode, byte-for-byte agreement. The reference is a live single-thread
/// ProfileSession; against it the oracle checks
///
///   - the same session with SlicingConfig::HotPathCaches flipped (the
///     caches promise to be observation-free),
///   - the same session on the other execution engine (threaded vs
///     interpreted — runtime/ThreadedEngine.h promises a byte-identical
///     hook stream, so Gcost, reports and run facts must agree),
///   - record -> replay: the reference's run manifest, recorded into an
///     in-memory sink, re-executed in a fresh session,
///   - sharded runs (runShardedSession) at each configured shard count and
///     thread count, against a sequential-reuse reference session that
///     run()s the module Shards times — the fold invariant the parallel
///     driver documents,
///   - a GraphIO round trip: writeGraph -> readGraph -> writeGraph must
///     reproduce the exact bytes,
///   - hops: on every node of the reference Gcost, CostModel's
///     chain-forest HRAB must equal the plain BFS reference
///     (hrabReference): the benefit and both consumer flags,
///   - the rewrite-pass pipeline (analysis/PassManager.h): when it commits
///     rewrites, the rewritten module must verify and reproduce the
///     original's observables (status, sink hash, return value) on both
///     engines — an independent re-check of the validation the pipeline
///     already performed internally.
///
/// Compared artifacts: the canonical Gcost serialization, the copy,
/// nullness and typestate graphs' serializations, every client report
/// section, and the RunResult facts of the execution (status,
/// executed instructions, calls, allocations, sink hash). Any mismatch is
/// reported with the failing mode and a first-difference diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_FUZZ_ORACLE_H
#define LUD_FUZZ_ORACLE_H

#include "profiling/SlicingProfiler.h"
#include "workloads/Driver.h"

#include <string>
#include <vector>

namespace lud {

class Module;

namespace fuzz {

struct OracleConfig {
  /// Base slicing knobs; the caches-flip mode toggles HotPathCaches.
  SlicingConfig Slicing;
  /// Engine the reference session (and every non-engine mode) runs on; the
  /// engines mode runs the *other* backend and diffs against the reference.
  EngineKind Engine = defaultEngineKind();
  /// Client analyses driven through every mode.
  ClientSet Clients = ClientSet::all();
  /// Shard counts the sharded mode exercises.
  std::vector<unsigned> ShardCounts = {2, 4, 8};
  /// Thread counts per shard count (1 is the sequential reference pool).
  std::vector<unsigned> ThreadCounts = {1, 4};
  /// Interpreter budget safety valve for runaway candidates. Budget
  /// exhaustion is deterministic, so it cross-checks like any other run.
  uint64_t MaxInstructions = 50'000'000;
  bool CheckCachesFlip = true;
  bool CheckEngines = true;
  bool CheckReplay = true;
  bool CheckSharded = true;
  bool CheckGraphIO = true;
  /// Run the rewrite-pass pipeline and re-check its output-preservation
  /// contract. Costs several extra executions per candidate, so the
  /// fuzzing loop enables it on a fraction of runs.
  bool CheckOptimize = false;
};

struct OracleResult {
  bool Ok = true;
  /// The cross-check that diverged, e.g. "caches-flip", "engines(threaded)",
  /// "replay", "sharded(4, threads=4)", "graphio-roundtrip", "verifier",
  /// "optimize(interp)".
  std::string Mode;
  /// First-difference diagnostic: artifact, byte offset, excerpts.
  std::string Detail;
};

/// Drives \p M through every enabled mode and cross-checks the results.
OracleResult runOracle(const Module &M, const OracleConfig &Cfg);

/// Renders \p Cfg as the `lud-fuzz --check` flags that reproduce it, e.g.
/// "--slots=8 --clients=copy,nullness --thin-slicing=1 ...".
std::string configFlags(const OracleConfig &Cfg);

} // namespace fuzz
} // namespace lud

#endif // LUD_FUZZ_ORACLE_H
