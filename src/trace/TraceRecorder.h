//===- trace/TraceRecorder.h - Recording profiler stage --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The recording stage: a profiler that counts the hook events of each run,
/// per hook kind and per phase, and appends the run's `lud.run.v1` record
/// (trace/RunManifest.h) to its sink once the session has the run's
/// outcome. It composes through ComposedProfiler like any client, and
/// since hooks receive the same arguments at every pipeline position, its
/// counts do not depend on where it sits or on what else runs
/// (tests/trace/RecordReplayTest.cpp pins this). Replay composes one
/// without a sink to count the re-executed hooks it checks each record
/// against.
///
/// A hook costs one increment, of its kind's counter. Per-phase attribution
/// is derived, not counted: the events since the last phase change all
/// belong to the current phase, so each onPhase folds that difference into
/// the phase's total, and accountStats adds the open one.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TRACE_TRACERECORDER_H
#define LUD_TRACE_TRACERECORDER_H

#include "ir/Function.h"
#include "obs/Metrics.h"
#include "runtime/ProfilerConcept.h"
#include "support/OutStream.h"
#include "trace/RunManifest.h"

#include <numeric>

namespace lud {
namespace trace {

class TraceRecorder {
public:
  /// One counter per hook; run start and end are not events.
  enum Hook : uint8_t {
    EntryFrame,
    Phase,
    Const,
    Assign,
    Bin,
    Un,
    Alloc,
    AllocArray,
    LoadField,
    StoreField,
    LoadStatic,
    StoreStatic,
    LoadElem,
    StoreElem,
    ArrayLen,
    PredicateTaken,
    PredicateNotTaken,
    NativeCall,
    CallEnter,
    Return,
    ReturnBound,
    Trap,
    NumHooks
  };

  /// Names of the `trace.events.<hook>` gauges, indexed by Hook.
  static constexpr const char *kHookNames[NumHooks] = {
      "entry_frame", "phase",          "const",
      "assign",      "bin",            "un",
      "alloc",       "alloc_array",    "load_field",
      "store_field", "load_static",    "store_static",
      "load_elem",   "store_elem",     "array_len",
      "predicate_taken", "predicate_not_taken", "native_call",
      "call_enter",  "return",         "return_bound",
      "trap"};

  /// \p Sink receives the records and must outlive the recorder; a null
  /// sink counts without writing.
  explicit TraceRecorder(OutStream *Sink = nullptr) : Sink(Sink) {}

  /// Hook events over every run so far.
  uint64_t events() const {
    return std::accumulate(Count, Count + NumHooks, uint64_t(0));
  }
  /// Hook events since the current (or last) run started.
  uint64_t runEvents() const { return events() - RunStartEvents; }
  /// Manifest bytes written.
  uint64_t bytes() const { return Bytes; }

  /// Appends \p R to the sink (no-op without one).
  void write(const RunRecord &R) {
    if (!Sink)
      return;
    StringOutStream Line;
    writeRecord(R, Line);
    *Sink << Line.str();
    Bytes += Line.str().size();
  }

  /// Writes the recorder's telemetry (`trace.*`) into \p R: total events,
  /// runs, per-hook event counts and per-phase event attribution.
  /// Idempotent set()s, like the client profilers' accountStats.
  void accountStats(obs::MetricsRegistry &R) const {
    R.set(R.gauge("trace.events", obs::Unit::Count, obs::Merge::Sum),
          events());
    R.set(R.gauge("trace.segments", obs::Unit::Count, obs::Merge::Sum),
          Segments);
    for (unsigned K = 0; K != NumHooks; ++K)
      if (Count[K])
        R.set(R.gauge(std::string("trace.events.") + kHookNames[K],
                      obs::Unit::Count, obs::Merge::Sum),
              Count[K]);
    for (unsigned P = 0; P != kPhaseBuckets; ++P) {
      uint64_t N =
          PhaseEvents[P] + (P == Bucket ? events() - PhaseStartEvents : 0);
      if (!N)
        continue;
      std::string Name = P + 1 == kPhaseBuckets
                             ? std::string("other")
                             : std::to_string(P);
      R.set(R.gauge("trace.phase." + Name + ".events", obs::Unit::Count,
                    obs::Merge::Sum),
            N);
    }
  }

  // Profiler hooks.
  void onRunStart(const Module &, Heap &) {
    ++Segments;
    RunStartEvents = events();
  }
  void onEntryFrame(const Function &) { hit(EntryFrame); }
  void onPhase(int64_t P) {
    hit(Phase);
    // The marker itself belongs to the phase it ends.
    uint64_t Now = events();
    PhaseEvents[Bucket] += Now - PhaseStartEvents;
    PhaseStartEvents = Now;
    Bucket = P >= 0 && P < int64_t(kPhaseBuckets) - 1 ? unsigned(P)
                                                      : kPhaseBuckets - 1;
  }
  void onConst(const ConstInst &) { hit(Const); }
  void onAssign(const AssignInst &) { hit(Assign); }
  void onBin(const BinInst &) { hit(Bin); }
  void onUn(const UnInst &) { hit(Un); }
  void onAlloc(const AllocInst &, ObjId) { hit(Alloc); }
  void onAllocArray(const AllocArrayInst &, ObjId) { hit(AllocArray); }
  void onLoadField(const LoadFieldInst &, ObjId, const Value &) {
    hit(LoadField);
  }
  void onStoreField(const StoreFieldInst &, ObjId, const Value &) {
    hit(StoreField);
  }
  void onLoadStatic(const LoadStaticInst &, const Value &) {
    hit(LoadStatic);
  }
  void onStoreStatic(const StoreStaticInst &, const Value &) {
    hit(StoreStatic);
  }
  void onLoadElem(const LoadElemInst &, ObjId, uint32_t, const Value &) {
    hit(LoadElem);
  }
  void onStoreElem(const StoreElemInst &, ObjId, uint32_t, const Value &) {
    hit(StoreElem);
  }
  void onArrayLen(const ArrayLenInst &, ObjId) { hit(ArrayLen); }
  void onPredicate(const CondBrInst &, bool Taken) {
    hit(Taken ? PredicateTaken : PredicateNotTaken);
  }
  void onNativeCall(const NativeCallInst &) { hit(NativeCall); }
  void onCallEnter(const CallInst &, const Function &, ObjId) {
    hit(CallEnter);
  }
  void onReturn(const ReturnInst &) { hit(Return); }
  void onReturnBound(Reg) { hit(ReturnBound); }
  void onTrap(const Instruction &, TrapKind, Reg) { hit(Trap); }

private:
  /// Phase-attribution buckets: phase ids 0..6 get their own bucket,
  /// everything else lands in "other".
  static constexpr unsigned kPhaseBuckets = 8;

  void hit(Hook K) { ++Count[K]; }

  OutStream *Sink;
  uint64_t Bytes = 0;
  uint64_t Segments = 0;
  uint64_t RunStartEvents = 0;
  /// The current phase's bucket, and events() when it was entered.
  unsigned Bucket = 0;
  uint64_t PhaseStartEvents = 0;
  uint64_t Count[NumHooks] = {};
  /// Events of each bucket up to its last exit (the open bucket's events
  /// since PhaseStartEvents are not in it yet).
  uint64_t PhaseEvents[kPhaseBuckets] = {};
};

} // namespace trace
} // namespace lud

#endif // LUD_TRACE_TRACERECORDER_H
