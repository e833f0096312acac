//===- workloads/Driver.cpp - Run workloads, collect metrics ---------------===//

#include "workloads/Driver.h"

#include "analysis/Report.h"
#include "obs/PhaseTimer.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/ThreadedEngine.h"
#include "support/OutStream.h"
#include "trace/TraceRecorder.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

using namespace lud;

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

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
    Cfg.Instrument = true; // Clients read the substrate's heap tags.
  if (Cfg.Instrument && !Slicing)
    Slicing = std::make_unique<SlicingProfiler>(Cfg.Slicing);
  if (Cfg.Clients.hasCopy() && !Copy)
    Copy = std::make_unique<CopyProfiler>(*Slicing);
  if (Cfg.Clients.hasNullness() && !Null)
    Null = std::make_unique<NullnessProfiler>(Cfg.Slicing.HotPathCaches);
  if (Cfg.Clients.hasTypestate() && !Type) {
    TypestateSpec Spec =
        Cfg.Typestate.NumStates ? Cfg.Typestate : lifecycleSpec(M);
    Type = std::make_unique<TypestateProfiler>(std::move(Spec), *Slicing);
  }
}

RunResult ProfileSession::execute(const Module &M, const RunConfig &RC,
                                  trace::TraceRecorder *Counter) {
  Heap H;
  if (Counter) {
    // Recording or re-executing: the counter leads the pipeline (a hook's
    // arguments are identical at every stage position; the order is only a
    // convention). Null stages are skipped, so this one instantiation
    // covers recorded baselines, substrate-only runs and full client sets.
    using Pipeline =
        ComposedProfiler<trace::TraceRecorder, SlicingProfiler, CopyProfiler,
                         NullnessProfiler, TypestateProfiler>;
    Pipeline P(Counter, Slicing.get(), Copy.get(), Null.get(), Type.get());
    return runWithEngine(Cfg.Engine, M, H, P, RC);
  }
  if (!Slicing) {
    // Empty pipeline: the stock-JVM baseline, bit-identical in behavior to
    // the old NoopProfiler path.
    ComposedProfiler<> P;
    return runWithEngine(Cfg.Engine, M, H, P, RC);
  }
  if (Cfg.Clients.empty()) {
    // Substrate only: keep the single-profiler instantiation so Table 1
    // overhead numbers measure the substrate, not pipeline dispatch.
    return runWithEngine(Cfg.Engine, M, H, *Slicing, RC);
  }
  // One pass, every client: substrate first (it writes the heap tags the
  // clients read), then the clients; disabled stages are null and skipped.
  using Pipeline = ComposedProfiler<SlicingProfiler, CopyProfiler,
                                    NullnessProfiler, TypestateProfiler>;
  Pipeline P(Slicing.get(), Copy.get(), Null.get(), Type.get());
  return runWithEngine(Cfg.Engine, M, H, P, RC);
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
  Out.Run = execute(M, Cfg.Run, Recorder.get());
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
      return Fail("module hash " + trace::hashHex(Rec.ModuleHash) +
                  " does not match the program's " +
                  trace::hashHex(moduleHash(M)) +
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
    RunResult R = execute(M, RC, &Counter);
    Out.Events += Counter.runEvents();
    ++Out.Segments;
    if (std::string D = trace::diffRecord(Rec, R, Counter.runEvents());
        !D.empty())
      return Fail("re-execution diverged from the record: " + D);
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

