//===- runtime/ProfilerConcept.h - Profiler policy interface ---*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The hook interface a profiler policy must provide to Interpreter<P>, and
/// NoopProfiler, the all-inline-empty baseline. Compiling the interpreter
/// once against NoopProfiler and once against an instrumenting profiler is
/// how the repo mirrors the paper's "stock JVM vs modified JVM" overhead
/// comparison: the baseline pays literally zero instrumentation cost.
///
/// Hooks fire *after* the interpreter performed the operation (object
/// allocated, value loaded/stored), except onCallEnter, which fires before
/// the callee frame is pushed so the profiler can read caller-side shadows.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_RUNTIME_PROFILERCONCEPT_H
#define LUD_RUNTIME_PROFILERCONCEPT_H

#include "ir/Instruction.h"
#include "runtime/Value.h"

namespace lud {

class Function;
class Heap;
class Module;

enum class TrapKind : uint8_t {
  None,
  NullDeref,
  OutOfBounds,
  DivByZero,
  BadVirtualCall,
  StackOverflow,
  UnknownNative,
};

/// Returns a printable name ("null dereference", ...).
const char *trapKindName(TrapKind K);

/// The do-nothing profiler: the uninstrumented baseline. Also documents the
/// full hook surface; custom profilers may derive from it and override
/// (statically) only what they need.
struct NoopProfiler {
  void onRunStart(const Module &, Heap &) {}
  /// Entry-function frame creation (no call site exists for it).
  void onEntryFrame(const Function &) {}
  /// Phase marker executed (selective tracking, Section 4.1).
  void onPhase(int64_t) {}

  void onConst(const ConstInst &) {}
  void onAssign(const AssignInst &) {}
  void onBin(const BinInst &) {}
  void onUn(const UnInst &) {}
  void onAlloc(const AllocInst &, ObjId) {}
  void onAllocArray(const AllocArrayInst &, ObjId) {}
  void onLoadField(const LoadFieldInst &, ObjId /*Base*/,
                   const Value & /*Loaded*/) {}
  void onStoreField(const StoreFieldInst &, ObjId /*Base*/,
                    const Value & /*Stored*/) {}
  void onLoadStatic(const LoadStaticInst &, const Value & /*Loaded*/) {}
  void onStoreStatic(const StoreStaticInst &, const Value & /*Stored*/) {}
  void onLoadElem(const LoadElemInst &, ObjId /*Base*/, uint32_t /*Index*/,
                  const Value & /*Loaded*/) {}
  void onStoreElem(const StoreElemInst &, ObjId /*Base*/, uint32_t /*Index*/,
                   const Value & /*Stored*/) {}
  void onArrayLen(const ArrayLenInst &, ObjId /*Base*/) {}
  void onPredicate(const CondBrInst &, bool /*Taken*/) {}
  void onNativeCall(const NativeCallInst &) {}
  /// Before the callee frame is pushed; Receiver is null for direct calls
  /// to non-methods.
  void onCallEnter(const CallInst &, const Function & /*Callee*/,
                   ObjId /*Receiver*/) {}
  /// A return executed in the (still current) callee frame.
  void onReturn(const ReturnInst &) {}
  /// After the callee frame was popped; Dst is the caller register
  /// receiving the result (kNoReg when discarded).
  void onReturnBound(Reg /*Dst*/) {}
  void onTrap(const Instruction &, TrapKind, Reg /*FaultReg*/) {}
};

} // namespace lud

#endif // LUD_RUNTIME_PROFILERCONCEPT_H
