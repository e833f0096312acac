//===- runtime/ComposedProfiler.h - Profiler pipeline fan-out --*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ComposedProfiler<Ps...>: a profiler policy that fans every hook of the
/// ProfilerConcept surface out to a tuple of member profilers, in template
/// -parameter order. This is what makes the paper's framework claim concrete
/// in this codebase: the engine is instantiated once per *pipeline shape*,
/// not once per client analysis, and one execution feeds any set of client
/// profilers. A profiling session composes its clients behind a TagEnv
/// (profiling/TagEnv.h) and runs them in an execution of their own, beside
/// the substrate's (workloads/Driver.h); the recorder composes ahead of the
/// substrate.
///
/// Stages are held by pointer and a null stage is skipped at every hook, so
/// one static pipeline type serves every runtime-selected subset of clients
/// (ProfileSession enables clients by passing nullptr for the others) at the
/// cost of one pointer test per hook per stage.
///
/// The empty composition ComposedProfiler<> has all-empty inline hooks and
/// is therefore exactly the NoopProfiler baseline: composing zero profilers
/// costs zero, preserving the stock-JVM overhead property the Noop baseline
/// exists for.
///
/// Ordering contract: stages run in declaration order. The stage that
/// writes heap object tags (environment P: a TagEnv, or the slicing
/// substrate, which owns one) must come before the clients that read them —
/// a client hook may then assume that stage already processed every
/// *earlier* event, in particular that objects allocated under tracking
/// carry their tag by the time the client sees a later load, store, or call
/// on them.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_RUNTIME_COMPOSEDPROFILER_H
#define LUD_RUNTIME_COMPOSEDPROFILER_H

#include "runtime/ProfilerConcept.h"

#include <tuple>
#include <type_traits>

namespace lud {

template <typename... Ps> class ComposedProfiler {
public:
  /// Empty pipeline (only well-formed to *use* when every stage pointer
  /// would be null anyway; with an empty pack this is the Noop baseline).
  ComposedProfiler() : Parts() {}
  /// Pipeline over the given stages, in declaration order. A null pointer
  /// disables its stage. (Constrained away for the empty pack, where it
  /// would collide with the default constructor.)
  template <bool NonEmpty = (sizeof...(Ps) > 0),
            typename = std::enable_if_t<NonEmpty>>
  explicit ComposedProfiler(Ps *...Stages) : Parts(Stages...) {}

  void onRunStart(const Module &M, Heap &H) {
    each([&](auto &P) { P.onRunStart(M, H); });
  }
  void onEntryFrame(const Function &F) {
    each([&](auto &P) { P.onEntryFrame(F); });
  }
  void onPhase(int64_t Phase) {
    each([&](auto &P) { P.onPhase(Phase); });
  }
  void onConst(const ConstInst &I) {
    each([&](auto &P) { P.onConst(I); });
  }
  void onAssign(const AssignInst &I) {
    each([&](auto &P) { P.onAssign(I); });
  }
  void onBin(const BinInst &I) {
    each([&](auto &P) { P.onBin(I); });
  }
  void onUn(const UnInst &I) {
    each([&](auto &P) { P.onUn(I); });
  }
  void onAlloc(const AllocInst &I, ObjId O) {
    each([&](auto &P) { P.onAlloc(I, O); });
  }
  void onAllocArray(const AllocArrayInst &I, ObjId O) {
    each([&](auto &P) { P.onAllocArray(I, O); });
  }
  void onLoadField(const LoadFieldInst &I, ObjId Base, const Value &Loaded) {
    each([&](auto &P) { P.onLoadField(I, Base, Loaded); });
  }
  void onStoreField(const StoreFieldInst &I, ObjId Base, const Value &Stored) {
    each([&](auto &P) { P.onStoreField(I, Base, Stored); });
  }
  void onLoadStatic(const LoadStaticInst &I, const Value &Loaded) {
    each([&](auto &P) { P.onLoadStatic(I, Loaded); });
  }
  void onStoreStatic(const StoreStaticInst &I, const Value &Stored) {
    each([&](auto &P) { P.onStoreStatic(I, Stored); });
  }
  void onLoadElem(const LoadElemInst &I, ObjId Base, uint32_t Index,
                  const Value &Loaded) {
    each([&](auto &P) { P.onLoadElem(I, Base, Index, Loaded); });
  }
  void onStoreElem(const StoreElemInst &I, ObjId Base, uint32_t Index,
                   const Value &Stored) {
    each([&](auto &P) { P.onStoreElem(I, Base, Index, Stored); });
  }
  void onArrayLen(const ArrayLenInst &I, ObjId Base) {
    each([&](auto &P) { P.onArrayLen(I, Base); });
  }
  void onPredicate(const CondBrInst &I, bool Taken) {
    each([&](auto &P) { P.onPredicate(I, Taken); });
  }
  void onNativeCall(const NativeCallInst &I) {
    each([&](auto &P) { P.onNativeCall(I); });
  }
  void onCallEnter(const CallInst &I, const Function &Callee, ObjId Receiver) {
    each([&](auto &P) { P.onCallEnter(I, Callee, Receiver); });
  }
  void onReturn(const ReturnInst &I) {
    each([&](auto &P) { P.onReturn(I); });
  }
  void onReturnBound(Reg Dst) {
    each([&](auto &P) { P.onReturnBound(Dst); });
  }
  void onTrap(const Instruction &I, TrapKind K, Reg FaultReg) {
    each([&](auto &P) { P.onTrap(I, K, FaultReg); });
  }

private:
  template <typename Fn> void each(Fn &&F) {
    std::apply([&](auto *...P) { ((P ? (void)F(*P) : void()), ...); }, Parts);
  }

  std::tuple<Ps *...> Parts;
};

} // namespace lud

#endif // LUD_RUNTIME_COMPOSEDPROFILER_H
