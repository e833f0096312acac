//===- profiling/SlicingProfiler.h - Gcost construction --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The online profiler that builds Gcost: an implementation of every
/// inference rule of Figure 4. Shadow locations map each runtime storage
/// location (register, heap slot, static) to the graph node that last wrote
/// it, in the ShadowMachine the client profilers use too; a tracking stack
/// passes shadows across calls; object tags and receiver-object context
/// chains (environment P) come from the TagEnv the substrate owns, which
/// writes the tags into the heap object headers.
/// Every fixed-arity event resolves its node, frequency and up to two
/// def-use edges in one DepGraph::hit call, the same per-instruction memo
/// the client graphs use; only natives and the base-pointer edge of
/// non-thin slicing add further edges one by one.
///
/// Phase markers (the `phase` pseudo-native) gate tracking so the paper's
/// selective-phase overhead experiment (Section 4.1) can be reproduced:
/// shadow stacks stay aligned while tracking is off, but no graph updates
/// happen.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_SLICINGPROFILER_H
#define LUD_PROFILING_SLICINGPROFILER_H

#include "profiling/DepGraph.h"
#include "profiling/ShadowMachine.h"
#include "profiling/TagEnv.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"
#include "support/FlatSet.h"

namespace lud {

class Module;
namespace obs {
class MetricsRegistry;
}

class SlicingProfiler {
public:
  explicit SlicingProfiler(SlicingConfig Cfg = {});

  DepGraph &graph() { return G; }
  const DepGraph &graph() const { return G; }
  const SlicingConfig &config() const { return Cfg; }
  const Module *module() const { return M; }

  /// Per-predicate-node outcome counts (always-true detection).
  struct PredicateOutcome {
    uint64_t TakenCount = 0;
    uint64_t NotTakenCount = 0;
  };
  /// Outcome counts indexed by NodeId. The column ends past the last
  /// predicate node; every other node's entry counts zero.
  const std::vector<PredicateOutcome> &predicateOutcomes() const {
    return PredOutcomes;
  }

  /// Instruction-weighted average context conflict ratio over the graph
  /// (Table 1's CR column). Per function f with C distinct contexts hashed
  /// into U occupied slots: CR(f) = 0 if C <= 1, else (C - U) / (C - 1);
  /// each static instruction of f present in the graph contributes one
  /// sample.
  double averageCR() const;

  /// Total distinct dynamic contexts observed (all functions).
  uint64_t distinctContexts() const;

  /// Merges another profiler's results into this one: the dependence graph
  /// with its location activity (DepGraph::mergeFrom), the per-node
  /// predicate outcomes (renumbered), and the per-function context sets.
  /// Both profilers must share the module and configuration; \p O is
  /// treated as the later of two sequential runs. This is how the parallel
  /// workload driver folds its per-thread shards back into one profile.
  void mergeFrom(const SlicingProfiler &O);

  /// Writes the substrate's state-derived telemetry into \p R: Gcost
  /// growth gauges (`gcost.*`), heap-activity totals (`heap.*`), and the
  /// shadow-memory accounting (`mem.*`) for the shadow heap, interning
  /// tables, and graph arenas. Gauges are set(), the node-frequency
  /// histogram is cleared and refilled, so the call is idempotent — the
  /// session re-invokes it after every run and every merge. Everything
  /// recorded here is deterministic for a deterministic workload (see
  /// docs/OBSERVABILITY.md).
  void accountStats(obs::MetricsRegistry &R) const;

  //===--------------------------------------------------------------------===
  // Profiler hooks (see runtime/ProfilerConcept.h for the contract).
  //===--------------------------------------------------------------------===

  void onRunStart(const Module &Mod, Heap &H);
  void onRunEnd();
  void onEntryFrame(const Function &F);
  void onPhase(int64_t Phase);

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
  /// Per-slot write/read state for overwrite detection.
  enum SlotState : uint8_t { Virgin = 0, WrittenUnread = 1, WrittenRead = 2 };

  /// A shadow heap or static slot packs the last writer node (low half)
  /// with its SlotState (high half): one array, one malloc per object, and
  /// one cache touch per load/store event instead of two.
  static constexpr uint64_t packSlot(NodeId N, uint8_t S) {
    return (uint64_t(S) << 32) | N;
  }
  static constexpr NodeId slotNode(uint64_t E) { return NodeId(E); }
  static constexpr uint8_t slotState(uint64_t E) { return uint8_t(E >> 32); }

  NodeId *regs() { return Sh.regs(); }

  uint32_t dom() const { return Env.domain(); }

  /// DepGraph::hit, plus the node's heap flags on its first event.
  NodeId hit(const Instruction &I, uint32_t Domain, NodeId SrcA = kNoNode,
             NodeId SrcB = kNoNode);

  /// The base-pointer use of a heap access: an edge only when thin
  /// slicing is off (Definition 2).
  void baseEdge(Reg Base, NodeId N) {
    if (!Cfg.ThinSlicing)
      G.addEdge(regs()[Base], N);
  }

  /// Load through shadow slot \p E (field, element or static): marks the
  /// slot's value read and returns its writer, the load's use.
  static NodeId loadSlot(uint64_t &E) {
    if (slotState(E) == WrittenUnread)
      E = packSlot(slotNode(E), WrittenRead);
    return slotNode(E);
  }

  /// Store by node \p N through shadow slot \p E of location {Tag, Slot}:
  /// makes N the writer and records the store (noteStore), an overwrite
  /// when the slot's value was never read. Under a tracking-off phase (\p N
  /// is kNoNode) it only clears the writer; the slot keeps its state.
  void storeSlot(uint64_t &E, NodeId N, uint64_t Tag, FieldSlot Slot,
                 const Value &Stored);

  /// Array-length shadow of \p O: the node that allocated it.
  NodeId &lenShadow(ObjId O) {
    if (LenShadow.size() <= O)
      LenShadow.resize(H->idBound(), kNoNode);
    return LenShadow[O];
  }

  /// Store-side bookkeeping shared by field/elem/static stores: effect
  /// decoration, writer list, reference edges, reference-tree children and
  /// the location's activity counters (\p Overwrite: the store clobbered
  /// an unread value).
  void noteStore(NodeId N, uint64_t Tag, FieldSlot Slot, const Value &Stored,
                 bool Overwrite);

  /// Load-side bookkeeping shared by field/elem/static/arraylen loads:
  /// effect decoration, reader list, activity counters.
  void noteLoad(NodeId N, uint64_t Tag, FieldSlot Slot);

  SlicingConfig Cfg;
  DepGraph G;
  /// Environment P: contexts, the phase gate and the ALLOC tag rule.
  TagEnv Env;
  const Module *M = nullptr;
  Heap *H = nullptr;

  /// Register frames, heap and static slots (packed), and the in-flight
  /// return; array lengths are shadowed separately, per object.
  ShadowMachine<NodeId, uint64_t> Sh{kNoNode, packSlot(kNoNode, Virgin)};
  std::vector<NodeId> LenShadow;

  /// Distinct encoded contexts per function, indexed by FuncId (dense).
  std::vector<FlatSet<uint64_t>> SeenContexts;
  std::vector<PredicateOutcome> PredOutcomes;

  /// Last (callee, encoded context) recorded in SeenContexts: a loop
  /// calling the same method on the same receiver chain re-inserts the
  /// same pair every iteration, and the set probe can be skipped. Inserts
  /// are idempotent, so this is pure common-subexpression caching.
  FuncId LastCtxFunc = ~FuncId(0);
  uint64_t LastCtxVal = ~uint64_t(0);

  FlatSet<uint64_t> &seenContextsFor(FuncId F) {
    if (SeenContexts.size() <= F)
      SeenContexts.resize(F + 1);
    return SeenContexts[F];
  }
};

} // namespace lud

#endif // LUD_PROFILING_SLICINGPROFILER_H
