//===- workloads/Driver.h - Run workloads, collect metrics -----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ProfileSession: every requested analysis over one run of a module. A
/// session owns the slicing substrate and any enabled client profilers
/// (copy, nullness, typestate). With clients enabled it executes the module
/// more than once: the substrate on the calling thread and the clients,
/// composed behind their own TagEnv (runtime/ComposedProfiler.h), with
/// their own heap — each client is its own abstraction of the same
/// deterministic execution, so re-executing it is exact, and every client
/// execution's run facts are checked against the substrate's. Where the
/// clients run follows the cores the callers' threads leave free
/// (support/CoreBudget.h): with two, as two concurrent executions,
/// {copy, typestate} and {nullness}; with one, as one execution on one
/// thread; with none, as one execution on the calling thread after the
/// substrate's, so callers that already keep every core busy (the sharded
/// drivers at --threads=<cores>, a loaded daemon) add no threads. Sessions
/// merge (mergeFrom) so the parallel driver's sharded fold covers client
/// state, and render their clients' report sections through the uniform
/// analysis/Report printers.
///
/// The session lifecycle is open (prepare) → feed (run/replay) → fold
/// (mergeFrom) → report; every frontend — single batch run, the sharded
/// driver, lud-replay, and the lud-serve daemon's streamed sessions —
/// composes those same verbs rather than owning a parallel code path.
/// The overhead factors of Table 1 are profiled-time / baseline-time on
/// the identical engine (SessionConfig::profiled vs ::baseline).
///
//===----------------------------------------------------------------------===//

#ifndef LUD_WORKLOADS_DRIVER_H
#define LUD_WORKLOADS_DRIVER_H

#include "obs/Metrics.h"
#include "profiling/ClientSet.h"
#include "profiling/CopyProfiler.h"
#include "profiling/NullnessProfiler.h"
#include "profiling/SlicingProfiler.h"
#include "profiling/TypestateProfiler.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Engine.h"
#include "runtime/Interpreter.h"
#include "support/ErrorHandling.h"

#include <cstdio>
#include <memory>
#include <string>
#include <string_view>

namespace lud {

class OutStream;
class FileOutStream;

namespace trace {
class TraceRecorder;
}

/// Wall-clock seconds plus the run outcome.
struct TimedRun {
  RunResult Run;
  double Seconds = 0;
  /// Non-empty when a clients' execution diverged from the substrate's
  /// (their state then describes a different run).
  std::string Error;
};

struct SessionConfig {
  /// Execution backend: the reference interpreter or the direct-threaded
  /// engine (runtime/ThreadedEngine.h). Both drive the same profiler
  /// pipelines with an identical hook stream, so Gcost, client reports and
  /// run facts are byte-identical either way; only the speed differs. Replay
  /// re-executes on this engine too. Defaults from the LUD_ENGINE
  /// environment variable.
  EngineKind Engine = defaultEngineKind();
  /// Build Gcost (the slicing substrate). False with no clients is the
  /// uninstrumented baseline; any enabled client forces the substrate on.
  bool Instrument = true;
  /// Client analyses to run, in executions of their own beside the
  /// substrate's (on threads of their own while cores are spare).
  ClientSet Clients;
  SlicingConfig Slicing;
  RunConfig Run;
  /// Protocol for the typestate client; when empty (NumStates == 0) the
  /// session derives lifecycleSpec(M) from the module at run time.
  TypestateSpec Typestate;
  /// Own a MetricsRegistry and keep it current: per-phase spans, run.*
  /// counters from every run(), and the profilers' state-derived gauges
  /// refreshed after each run and merge. Off by default — the off state is
  /// one pointer test per phase boundary, nothing on the event hot path.
  bool CollectStats = false;
  /// When non-empty, append one `lud.run.v1` record per run() to this file
  /// (trace/RunManifest.h): the module hash, the budget, the frame limit,
  /// the input tape and the run's outcome. Recording composes a hook
  /// counter (trace/TraceRecorder.h) ahead of the substrate; with recording
  /// off the substrate's instantiations are exactly the unrecorded ones, so
  /// the feature costs nothing when unused.
  std::string RecordPath;
  /// Record into a caller-owned stream instead of RecordPath (tests; takes
  /// precedence). Must outlive the session.
  OutStream *RecordSink = nullptr;

  /// The uninstrumented stock-JVM baseline configuration: empty pipeline,
  /// nothing measured but the run itself.
  static SessionConfig baseline(RunConfig RC = {});
  /// The substrate-only profiled configuration (Gcost, no clients).
  static SessionConfig profiled(SlicingConfig SCfg = {}, RunConfig RC = {});
};

/// Outcome of re-executing a run manifest under the session's profilers.
struct ReplayRun {
  bool Ok = false;
  /// Diagnostic when !Ok: a malformed record, a module mismatch, a
  /// re-execution that diverged from its record, or an unreadable file.
  /// Record diagnostics carry the manifest line number.
  std::string Error;
  /// Hook events re-executed, and records (one per recorded run())
  /// consumed.
  uint64_t Events = 0;
  uint64_t Segments = 0;
  double Seconds = 0;
};

/// One profiling session: configure, run, consume the profilers. Repeated
/// run() calls accumulate into the same profilers, matching the
/// sequential-reuse semantics mergeFrom reproduces.
class ProfileSession {
public:
  explicit ProfileSession(SessionConfig Cfg = {});
  ~ProfileSession();

  /// Instantiates the configured profilers against \p M without running
  /// anything — the lifecycle's "open" step. run() and replay() prepare
  /// implicitly; explicit preparation exists for sessions that only ever
  /// mergeFrom() others (the service's report fold target) and must have
  /// live profilers for the fold to land in.
  void prepare(const Module &M) { ensureProfilers(M); }

  /// Executes \p M under the substrate and under the enabled clients (on
  /// threads of their own while cores are spare); returns once every
  /// execution finished. An exception thrown in a clients' execution is
  /// rethrown here.
  TimedRun run(const Module &M);

  /// Re-executes every record of an in-memory `lud.run.v1` manifest under
  /// the enabled profilers, on the session's engine and natives, output
  /// discarded, so the profiler state is the recorded run's. Each run is
  /// bounded by, and checked against, its record (docs/TRACING.md), and the
  /// clients' execution against the substrate's, as in run(); line
  /// numbers in diagnostics continue across calls. A session configured to
  /// record writes each checked record back out, so replaying into it
  /// reproduces the manifest. On failure the profilers are partially
  /// updated; discard the session.
  ReplayRun replay(const Module &M, std::string_view Manifest);
  /// replay() over the contents of \p Path; every diagnostic starts with
  /// "<Path>: ".
  ReplayRun replayFile(const Module &M, const std::string &Path);

  /// The recording stage, when Cfg requested one and its sink opened.
  trace::TraceRecorder *recorder() { return Recorder.get(); }
  const trace::TraceRecorder *recorder() const { return Recorder.get(); }
  /// Non-empty when the record sink could not be opened (the run itself
  /// still proceeds, unrecorded).
  const std::string &recordError() const { return RecordErr; }

  const SessionConfig &config() const { return Cfg; }

  /// Enabled profilers (null when not enabled / not yet run).
  SlicingProfiler *slicing() { return Slicing.get(); }
  const SlicingProfiler *slicing() const { return Slicing.get(); }
  CopyProfiler *copy() { return Copy.get(); }
  const CopyProfiler *copy() const { return Copy.get(); }
  NullnessProfiler *nullness() { return Null.get(); }
  const NullnessProfiler *nullness() const { return Null.get(); }
  TypestateProfiler *typestate() { return Type.get(); }
  const TypestateProfiler *typestate() const { return Type.get(); }

  /// The session's telemetry registry (null unless Cfg.CollectStats).
  /// Event counters (run.*, phase.*) accumulate across runs and merges;
  /// state-derived gauges and histograms (gcost.*, heap.*, mem.*, client
  /// metrics) always describe the profilers' current — possibly merged —
  /// state, so after the sharded fold they are identical at any thread
  /// count (docs/OBSERVABILITY.md).
  obs::MetricsRegistry *stats() { return Stats.get(); }
  const obs::MetricsRegistry *stats() const { return Stats.get(); }

  /// Folds another session's profilers into this one, client state
  /// included, treating \p O as the later of two sequential runs. Both
  /// sessions must share the configuration and module (the parallel
  /// driver's shards); profiler sets must match. Telemetry registries fold
  /// too, and the state-derived metrics are re-derived from the merged
  /// profilers afterwards.
  void mergeFrom(const ProfileSession &O);

  /// Renders the enabled clients' report sections ("=== ... ===" headed),
  /// via the analysis/Report printers. No-op when no client is enabled.
  void printClientReports(const Module &M, OutStream &OS,
                          size_t TopK = 15) const;

  /// Releases the substrate to a caller that outlives the session (the
  /// ProfiledRun result of the test and bench helpers).
  std::unique_ptr<SlicingProfiler> takeSlicing() { return std::move(Slicing); }

private:
  void ensureProfilers(const Module &M);
  /// One run of \p M: the substrate on this thread, with \p Counter (when
  /// non-null) composed ahead of it, and the enabled clients in executions
  /// of their own, placed by CoreBudget::clientThreads(): two concurrent
  /// ones, one concurrent one, or one here after the substrate. Returns
  /// the substrate's result; sets \p Diverged when a clients' execution
  /// disagreed with it on a run fact.
  RunResult execute(const Module &M, const RunConfig &RC,
                    trace::TraceRecorder *Counter, std::string &Diverged);
  /// replay()'s loop: re-executes and checks each record.
  bool reexecute(const Module &M, std::string_view Manifest, ReplayRun &Out);
  /// trace::moduleHash, computed once per session (a session profiles one
  /// module).
  uint64_t moduleHash(const Module &M);
  /// Re-derives every state-based metric from the profilers (idempotent
  /// set()s). Called after each run and each merge.
  void refreshDerivedStats();

  SessionConfig Cfg;
  std::unique_ptr<SlicingProfiler> Slicing;
  std::unique_ptr<CopyProfiler> Copy;
  std::unique_ptr<NullnessProfiler> Null;
  std::unique_ptr<TypestateProfiler> Type;
  std::unique_ptr<obs::MetricsRegistry> Stats;
  std::unique_ptr<trace::TraceRecorder> Recorder;
  std::unique_ptr<FileOutStream> RecordStream;
  std::FILE *RecordFile = nullptr;
  std::string RecordErr;
  const Module *HashedModule = nullptr;
  uint64_t ModuleHash = 0;
  /// Manifest lines consumed by replay() so far.
  uint64_t ReplayedLines = 0;
};

/// Runs \p F over the pipeline of a clients' execution: \p Env ahead of
/// exactly the non-null clients among \p Copy, \p Null and \p Type, in that
/// order, one ComposedProfiler<TagEnv, ...> instantiation per client set.
/// At least one client must be non-null (an empty set is no execution).
template <typename Fn>
RunResult withClientPipeline(TagEnv &Env, CopyProfiler *Copy,
                             NullnessProfiler *Null, TypestateProfiler *Type,
                             Fn &&F) {
  return withStages(
      [&](auto &...Clients) -> RunResult {
        if constexpr (sizeof...(Clients) == 0) {
          lud_unreachable("a clients' execution without clients");
        } else {
          ComposedProfiler<TagEnv,
                           std::remove_reference_t<decltype(Clients)>...>
              P(Env, Clients...);
          return F(P);
        }
      },
      Copy, Null, Type);
}

/// A substrate-only run's outcome plus its profiler (holding Gcost),
/// released from the session that produced it (takeSlicing).
struct ProfiledRun {
  RunResult Run;
  double Seconds = 0;
  std::unique_ptr<SlicingProfiler> Prof;
};

} // namespace lud

#endif // LUD_WORKLOADS_DRIVER_H
