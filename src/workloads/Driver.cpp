//===- workloads/Driver.cpp - Run workloads, collect metrics ---------------===//

#include "workloads/Driver.h"

#include "analysis/Report.h"
#include "obs/PhaseTimer.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Natives.h"
#include "runtime/ThreadedEngine.h"
#include "support/CoreBudget.h"
#include "support/OutStream.h"
#include "trace/TraceRecorder.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <exception>
#include <thread>

using namespace lud;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

/// The first run fact on which a clients' execution \p C differs from
/// the substrate's \p S, or "" when the two executions agree.
std::string diffExecutions(const RunResult &S, const RunResult &C) {
  auto Differs = [](const char *Fact, const std::string &Sub,
                    const std::string &Cli) {
    return std::string(Fact) + " " + Cli + ", substrate " + Sub;
  };
  if (S.Status != C.Status)
    return Differs("status", runStatusName(S.Status), runStatusName(C.Status));
  if (S.Trap != C.Trap)
    return Differs("trap", trapKindName(S.Trap), trapKindName(C.Trap));
  if (S.ExecutedInstrs != C.ExecutedInstrs)
    return Differs("instructions", std::to_string(S.ExecutedInstrs),
                   std::to_string(C.ExecutedInstrs));
  if (S.SinkHash != C.SinkHash)
    return Differs("sink", hashHex(S.SinkHash),
                   hashHex(C.SinkHash));
  if (S.ReturnValue.Kind != C.ReturnValue.Kind ||
      valueBits(S.ReturnValue) != valueBits(C.ReturnValue))
    return Differs("return value", hashHex(valueBits(S.ReturnValue)),
                   hashHex(valueBits(C.ReturnValue)));
  return "";
}

/// Runs \p M under exactly the stages \p S, in order. A lone stage runs as
/// itself, so a substrate-only run is the substrate's own instantiation
/// (the one the optimizer's profiling runs use), and its overhead measures
/// the substrate, not pipeline fan-out.
template <typename... Ps>
RunResult runStages(EngineKind E, const Module &M, Heap &H,
                    const RunConfig &RC, Ps &...S) {
  if constexpr (sizeof...(Ps) == 1) {
    return runWithEngine(E, M, H, S..., RC);
  } else {
    ComposedProfiler<Ps...> P(S...);
    return runWithEngine(E, M, H, P, RC);
  }
}

/// One execution of the clients beside the substrate's, over exactly the
/// non-null ones (withClientPipeline).
struct ClientExecution {
  CopyProfiler *Copy = nullptr;
  NullnessProfiler *Null = nullptr;
  TypestateProfiler *Type = nullptr;
  RunResult Run;
  uint64_t Nanos = 0;
  /// What the execution threw, rethrown on the session's thread.
  std::exception_ptr Err;

  void run(const SessionConfig &Cfg, const Module &M, const RunConfig &RC) {
    try {
      auto T0 = std::chrono::steady_clock::now();
      {
        RunConfig ClientRC = RC;
        ClientRC.PrintStream = nullptr;
        Heap H;
        TagEnv Env(Cfg.Slicing);
        Run = withClientPipeline(Env, Copy, Null, Type, [&](auto &P) {
          return runWithEngine(Cfg.Engine, M, H, P, ClientRC);
        });
      }
      Nanos = uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now() - T0)
                           .count());
    } catch (...) {
      Err = std::current_exception();
    }
  }
};

} // namespace

ProfileSession::ProfileSession(SessionConfig Cfg) : Cfg(std::move(Cfg)) {}

ProfileSession::~ProfileSession() {
  // The recorder writes into the stream, which writes into the file.
  Recorder.reset();
  RecordStream.reset();
  if (RecordFile)
    std::fclose(RecordFile);
}

void ProfileSession::ensureProfilers(const Module &M) {
  if (Cfg.CollectStats && !Stats)
    Stats = std::make_unique<obs::MetricsRegistry>();
  if ((Cfg.RecordSink || !Cfg.RecordPath.empty()) && !Recorder &&
      RecordErr.empty()) {
    OutStream *Sink = Cfg.RecordSink;
    if (!Sink) {
      RecordFile = std::fopen(Cfg.RecordPath.c_str(), "wb");
      if (!RecordFile) {
        RecordErr = "cannot write '" + Cfg.RecordPath + "'";
      } else {
        RecordStream = std::make_unique<FileOutStream>(RecordFile);
        Sink = RecordStream.get();
      }
    }
    if (Sink)
      Recorder = std::make_unique<trace::TraceRecorder>(Sink);
  }
  if (Cfg.Clients.any())
    Cfg.Instrument = true; // A client session always builds Gcost too.
  if (Cfg.Instrument && !Slicing)
    Slicing = std::make_unique<SlicingProfiler>(Cfg.Slicing);
  if (Cfg.Clients.hasCopy() && !Copy)
    Copy = std::make_unique<CopyProfiler>(Cfg.Slicing);
  if (Cfg.Clients.hasNullness() && !Null)
    Null = std::make_unique<NullnessProfiler>(Cfg.Slicing.HotPathCaches);
  if (Cfg.Clients.hasTypestate() && !Type) {
    TypestateSpec Spec =
        Cfg.Typestate.NumStates ? Cfg.Typestate : lifecycleSpec(M);
    Type = std::make_unique<TypestateProfiler>(std::move(Spec), Cfg.Slicing);
  }
}

RunResult ProfileSession::execute(const Module &M, const RunConfig &RC,
                                  trace::TraceRecorder *Counter,
                                  std::string &Diverged) {
  // The clients get executions of their own: each its own heap, engine and
  // TagEnv (which tags objects exactly as the substrate's does), and no
  // output. They share only the const module and run configuration with
  // the substrate's execution and with each other. Placement follows the
  // cores the callers' threads leave free (CoreBudget::clientThreads):
  // with two, {copy, typestate} and {nullness} run as two executions on
  // threads of their own (copy and nullness cost about the same); with
  // one, every client runs in one execution on one thread; with none, that
  // one execution runs on this thread after the substrate's.
  CoreBudget &Cores = CoreBudget::process();
  CoreBudget::Hold Self = Cores.holdCallingThread();
  const unsigned Threads = Cfg.Clients.any() ? Cores.clientThreads() : 0;
  ClientExecution Execs[2];
  size_t NumExecs = 0;
  auto Plan = [&](CopyProfiler *C, NullnessProfiler *N, TypestateProfiler *T) {
    ClientExecution &E = Execs[NumExecs++];
    E.Copy = C;
    E.Null = N;
    E.Type = T;
  };
  if (Threads == 2 && (Copy || Type) && Null) {
    Plan(Copy.get(), nullptr, Type.get());
    Plan(nullptr, Null.get(), nullptr);
  } else if (Cfg.Clients.any()) {
    Plan(Copy.get(), Null.get(), Type.get());
  }
  std::jthread Jobs[2];
  if (Threads)
    for (size_t I = 0; I != NumExecs; ++I)
      Jobs[I] = std::jthread([&, I] { Execs[I].run(Cfg, M, RC); });

  RunResult Run;
  {
    // The substrate's heap is freed before the clients' executions end
    // (concurrent) or start (inline).
    Heap H;
    // The stages present this run pick the instantiation: none is the
    // stock-JVM baseline, the recorder alone a capture, the substrate alone
    // a profile; a recorded profile or a replay leads the substrate with
    // the counter (a hook's arguments are identical at every stage
    // position; the order is only a convention).
    Run = withStages(
        [&](auto &...S) { return runStages(Cfg.Engine, M, H, RC, S...); },
        Counter, Slicing.get());
  }

  if (NumExecs == 0)
    return Run;
  for (size_t I = 0; I != NumExecs; ++I) {
    if (Threads)
      Jobs[I].join();
    else
      Execs[I].run(Cfg, M, RC);
  }
  for (size_t I = 0; I != NumExecs; ++I)
    if (Execs[I].Err)
      std::rethrow_exception(Execs[I].Err);
  if (Stats) {
    // Each client execution timed itself; the registry is only touched
    // here, on this thread.
    obs::MetricsRegistry &R = *Stats;
    uint64_t Nanos = 0;
    for (size_t I = 0; I != NumExecs; ++I)
      Nanos += Execs[I].Nanos;
    // spans counts runs, not executions, so the deterministic exports do
    // not depend on the cores the process had free; the placement shows
    // only in the nanos metrics.
    R.add(R.counter("phase.clients.nanos", obs::Unit::Nanos), Nanos);
    R.add(R.counter("phase.clients.spans", obs::Unit::Count), 1);
    if (!Threads)
      R.add(R.counter("phase.clients.inline_nanos", obs::Unit::Nanos), Nanos);
    else if (NumExecs == 2)
      R.add(R.counter("phase.clients.split_nanos", obs::Unit::Nanos), Nanos);
  }
  for (size_t I = 0; I != NumExecs; ++I) {
    if (std::string D = diffExecutions(Run, Execs[I].Run); !D.empty()) {
      Diverged = "client execution diverged from the substrate's: " + D;
      break;
    }
  }
  return Run;
}

uint64_t ProfileSession::moduleHash(const Module &M) {
  if (HashedModule != &M) {
    ModuleHash = trace::moduleHash(M);
    HashedModule = &M;
  }
  return ModuleHash;
}

TimedRun ProfileSession::run(const Module &M) {
  ensureProfilers(M);
  TimedRun Out;
  obs::PhaseTimer Span(Stats.get(), "interpret");
  auto T0 = std::chrono::steady_clock::now();
  Out.Run = execute(M, Cfg.Run, Recorder.get(), Out.Error);
  Out.Seconds = secondsSince(T0);
  Span.stop();
  if (Recorder) {
    trace::RunRecord Rec;
    Rec.ModuleHash = moduleHash(M);
    Rec.MaxInstructions = Cfg.Run.MaxInstructions;
    Rec.MaxFrames = Cfg.Run.MaxFrames;
    if (Cfg.Run.Input)
      Rec.Input = *Cfg.Run.Input;
    Rec.Status = Out.Run.Status;
    Rec.Instructions = Out.Run.ExecutedInstrs;
    Rec.SinkHash = Out.Run.SinkHash;
    Rec.Events = Recorder->runEvents();
    Recorder->write(Rec);
    // A file sink has stdio buffering between it and the disk. Flush so
    // the manifest is replayable as soon as run() returns, not only when
    // the session dies — the sharded driver keeps shard 0 alive as the
    // fold target while its file is already being consumed.
    if (RecordFile)
      std::fflush(RecordFile);
  }
  if (Stats) {
    obs::MetricsRegistry &R = *Stats;
    R.add(R.counter("run.count"), 1);
    R.add(R.counter("run.instructions"), Out.Run.ExecutedInstrs);
    R.add(R.counter("run.calls"), Out.Run.Calls);
    R.add(R.counter("run.objects_allocated"), Out.Run.ObjectsAllocated);
    R.setMax(R.gauge("run.peak_frame_depth", obs::Unit::Count,
                     obs::Merge::Max),
             Out.Run.PeakFrameDepth);
    refreshDerivedStats();
  }
  return Out;
}

bool ProfileSession::reexecute(const Module &M, std::string_view Manifest,
                               ReplayRun &Out) {
  auto Fail = [&](const std::string &Msg) {
    Out.Error = "line " + std::to_string(ReplayedLines) + ": " + Msg;
    return false;
  };
  if (Manifest.empty()) {
    ++ReplayedLines;
    return Fail("empty manifest (expected a " +
                std::string(trace::kManifestMagic) + " record)");
  }
  for (std::string_view Line : trace::splitRecords(Manifest)) {
    ++ReplayedLines;
    trace::RunRecord Rec;
    std::string Err;
    if (!trace::parseRecord(Line, Rec, Err))
      return Fail(Err);
    if (Rec.ModuleHash != moduleHash(M))
      return Fail("module hash " + hashHex(Rec.ModuleHash) +
                  " does not match the program's " +
                  hashHex(moduleHash(M)) +
                  " (the manifest was recorded against a different "
                  "program)");
    // The recorded inputs, the session's natives and engine, no output. The
    // record's own instruction count bounds the re-execution, so a
    // fabricated record cannot run longer than it claims.
    RunConfig RC = Cfg.Run;
    RC.PrintStream = nullptr;
    RC.Input = &Rec.Input;
    RC.MaxFrames = Rec.MaxFrames;
    RC.MaxInstructions = std::min(
        Rec.MaxInstructions,
        Rec.Instructions + (Rec.Instructions != ~uint64_t(0) ? 1 : 0));
    // A recording session counts with its own recorder and re-records
    // each checked run, so replaying into it reproduces the manifest.
    trace::TraceRecorder Local;
    trace::TraceRecorder &Counter = Recorder ? *Recorder : Local;
    std::string Diverged;
    RunResult R = execute(M, RC, &Counter, Diverged);
    Out.Events += Counter.runEvents();
    ++Out.Segments;
    if (std::string D = trace::diffRecord(Rec, R, Counter.runEvents());
        !D.empty())
      return Fail("re-execution diverged from the record: " + D);
    if (!Diverged.empty())
      return Fail(Diverged);
    Counter.write(Rec);
  }
  if (RecordFile)
    std::fflush(RecordFile);
  return true;
}

ReplayRun ProfileSession::replay(const Module &M, std::string_view Manifest) {
  ensureProfilers(M);
  ReplayRun Out;
  obs::PhaseTimer Span(Stats.get(), "replay");
  auto T0 = std::chrono::steady_clock::now();
  Out.Ok = reexecute(M, Manifest, Out);
  Out.Seconds = secondsSince(T0);
  Span.stop();
  if (Stats) {
    obs::MetricsRegistry &R = *Stats;
    R.add(R.counter("replay.count"), 1);
    R.add(R.counter("replay.events"), Out.Events);
    R.add(R.counter("replay.segments"), Out.Segments);
    R.add(R.counter("replay.bytes"), Manifest.size());
    refreshDerivedStats();
  }
  return Out;
}

ReplayRun ProfileSession::replayFile(const Module &M,
                                     const std::string &Path) {
  std::string Bytes;
  errno = 0;
  if (!readFileBytes(Path, Bytes)) {
    ReplayRun Out;
    Out.Error = Path + ": cannot read '" + Path + "': " +
                (errno ? std::strerror(errno) : "unknown error");
    return Out;
  }
  ReplayRun Out = replay(M, Bytes);
  if (!Out.Ok)
    Out.Error = Path + ": " + Out.Error;
  return Out;
}

void ProfileSession::refreshDerivedStats() {
  if (!Stats)
    return;
  obs::PhaseTimer Span(Stats.get(), "collect");
  if (Recorder)
    Recorder->accountStats(*Stats);
  if (Slicing)
    Slicing->accountStats(*Stats);
  if (Copy)
    Copy->accountStats(*Stats);
  if (Null)
    Null->accountStats(*Stats);
  if (Type)
    Type->accountStats(*Stats);
}

void ProfileSession::mergeFrom(const ProfileSession &O) {
  if (Slicing && O.Slicing)
    Slicing->mergeFrom(*O.Slicing);
  if (Copy && O.Copy)
    Copy->mergeFrom(*O.Copy);
  if (Null && O.Null)
    Null->mergeFrom(*O.Null);
  if (Type && O.Type)
    Type->mergeFrom(*O.Type);
  if (Stats && O.Stats) {
    Stats->mergeFrom(*O.Stats);
    // Gauges and histograms must describe the *merged* profilers, not a
    // fold of per-shard snapshots; re-derive them now.
    refreshDerivedStats();
  }
}

void ProfileSession::printClientReports(const Module &M, OutStream &OS,
                                        size_t TopK) const {
  printClientSections(Cfg.Clients, Copy.get(), Null.get(), Type.get(), M, OS,
                      TopK);
}

SessionConfig SessionConfig::baseline(RunConfig RC) {
  SessionConfig SC;
  SC.Instrument = false;
  SC.Run = RC;
  return SC;
}

SessionConfig SessionConfig::profiled(SlicingConfig SCfg, RunConfig RC) {
  SessionConfig SC;
  SC.Slicing = SCfg;
  SC.Run = RC;
  return SC;
}

