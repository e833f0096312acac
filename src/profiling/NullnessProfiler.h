//===- profiling/NullnessProfiler.h - Null propagation client --*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The null-value propagation client of Section 2.1 / Figure 2(a): abstract
/// dynamic thin slicing over the two-element domain {null, not-null}. When
/// a NullPointerException-style trap fires, the recorded graph shows where
/// the null value was created and every hop it took to the dereference —
/// more than origin-only tracking gives.
///
/// A pipeline stage: shadow-location bookkeeping lives in the shared
/// ShadowMachine, and a session composes the client with the other clients
/// in an execution of their own (runtime/ComposedProfiler.h,
/// workloads/Driver.h). It stays runnable standalone — nullness needs no
/// allocation-site tags.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_NULLNESSPROFILER_H
#define LUD_PROFILING_NULLNESSPROFILER_H

#include "profiling/DepGraph.h"
#include "profiling/ShadowMachine.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"

#include <vector>

namespace lud {

class Module;
namespace obs {
class MetricsRegistry;
}

/// Domain elements for the nullness abstraction.
inline constexpr uint32_t kNullDom = 0;
inline constexpr uint32_t kNotNullDom = 1;

/// Cache-line aligned: a session drives the clients on a thread of their
/// own, and no line may also hold the substrate's data (false sharing).
class alignas(64) NullnessProfiler {
public:
  /// \p HotPathCaches arms the graph's memos, as SlicingConfig's field of
  /// the same name does for the substrate.
  explicit NullnessProfiler(bool HotPathCaches = true);

  DepGraph &graph() { return G; }
  const DepGraph &graph() const { return G; }

  /// Node whose value was dereferenced when the trap fired (kNoNode if no
  /// trap happened or the value was untracked).
  NodeId faultNode() const { return Fault; }

  /// Merges another profiler's results into this one, treating \p O as the
  /// later of two sequential runs: the graph is folded with
  /// DepGraph::mergeFrom, and \p O's fault (if any) supersedes this one's,
  /// exactly as a later run's trap would overwrite the recorded fault when
  /// one profiler observes the runs back to back.
  void mergeFrom(const NullnessProfiler &O);

  /// Writes this client's state-derived telemetry (`nullness.*` gauges)
  /// into \p R. Idempotent set()s; see SlicingProfiler::accountStats.
  void accountStats(obs::MetricsRegistry &R) const;

  // Profiler hooks.
  void onRunStart(const Module &Mod, Heap &H);
  void onEntryFrame(const Function &F);
  void onPhase(int64_t) {}
  void onConst(const ConstInst &I);
  void onAssign(const AssignInst &I);
  void onBin(const BinInst &I);
  void onUn(const UnInst &I);
  void onAlloc(const AllocInst &I, ObjId O);
  void onAllocArray(const AllocArrayInst &I, ObjId O);
  void onLoadField(const LoadFieldInst &I, ObjId Base, const Value &Loaded);
  void onStoreField(const StoreFieldInst &I, ObjId Base, const Value &Stored);
  void onLoadStatic(const LoadStaticInst &I, const Value &Loaded);
  void onStoreStatic(const StoreStaticInst &I, const Value &Stored);
  void onLoadElem(const LoadElemInst &I, ObjId Base, uint32_t Index,
                  const Value &Loaded);
  void onStoreElem(const StoreElemInst &I, ObjId Base, uint32_t Index,
                   const Value &Stored);
  void onArrayLen(const ArrayLenInst &I, ObjId Base);
  void onPredicate(const CondBrInst &I, bool Taken);
  void onNativeCall(const NativeCallInst &I);
  void onCallEnter(const CallInst &I, const Function &Callee, ObjId Receiver);
  void onReturn(const ReturnInst &I);
  void onReturnBound(Reg Dst);
  void onTrap(const Instruction &I, TrapKind K, Reg FaultReg);

private:
  /// Shadow payload: the node that produced the location's value, and
  /// whether that value was null (the node's domain element, carried here
  /// so propagation never reads the node back).
  struct ShadowVal {
    NodeId N = kNoNode;
    bool IsNull = false;
  };

  ShadowVal *regs() { return Sh.regs(); }

  /// Resolves the event of \p I under (null or not-null) with its def-use
  /// sources (DepGraph::hit) and returns the value it produces.
  ShadowVal hit(const Instruction &I, bool IsNull, NodeId SrcA = kNoNode,
                NodeId SrcB = kNoNode);

  DepGraph G;
  ShadowMachine<ShadowVal> Sh;
  NodeId Fault = kNoNode;
};

/// Result of tracing a null dereference backwards (Figure 2(a)).
struct NullTrace {
  /// Instruction that created the null value originally.
  InstrId Origin = kNoInstr;
  /// The propagation flow, origin first, dereferenced value last (one
  /// instruction per hop the null value took).
  std::vector<InstrId> Flow;
  bool found() const { return Origin != kNoInstr; }
};

/// Walks backward from the profiler's fault node through null-annotated
/// nodes to the origin, reconstructing a shortest propagation path.
NullTrace traceNullOrigin(const NullnessProfiler &P);

} // namespace lud

#endif // LUD_PROFILING_NULLNESSPROFILER_H
