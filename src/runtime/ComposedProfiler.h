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
/// Stages are held by reference and are never null: which stages run is
/// part of the pipeline's type, so a hook costs exactly its stages' work.
/// A session that picks its stages at run time does so once per run with
/// withStages below, which hands the chosen stages to code instantiated for
/// exactly that set (workloads/Driver.cpp dispatches every session run that
/// way).
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

namespace lud {

template <typename... Ps> class ComposedProfiler {
public:
  /// Pipeline over the given stages, in declaration order. With an empty
  /// pack this is the default constructor of the Noop baseline.
  explicit ComposedProfiler(Ps &...Stages) : Parts(Stages...) {}

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
    std::apply([&](auto &...P) { (F(P), ...); }, Parts);
  }

  std::tuple<Ps &...> Parts;
};

namespace detail {
template <typename Fn, typename... Have>
decltype(auto) withStagesFrom(Fn &F, std::tuple<Have &...> Got) {
  return std::apply(F, Got);
}
template <typename Fn, typename... Have, typename P, typename... Rest>
decltype(auto) withStagesFrom(Fn &F, std::tuple<Have &...> Got, P *Next,
                              Rest *...More) {
  if (Next)
    return withStagesFrom(F, std::tuple_cat(Got, std::tie(*Next)), More...);
  return withStagesFrom(F, Got, More...);
}
} // namespace detail

/// Calls \p F with a reference to each non-null stage of \p Stages, in
/// declaration order, and returns what it returns. The null tests happen
/// here, once per call; \p F is instantiated for every subset of the
/// stages (2^N of them), so a ComposedProfiler built from its arguments
/// has no per-hook test.
template <typename Fn, typename... Ps>
decltype(auto) withStages(Fn &&F, Ps *...Stages) {
  return detail::withStagesFrom(F, std::tuple<>(), Stages...);
}

} // namespace lud

#endif // LUD_RUNTIME_COMPOSEDPROFILER_H
