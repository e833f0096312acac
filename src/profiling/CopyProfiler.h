//===- profiling/CopyProfiler.h - Extended copy profiling ------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The extended copy profiling client of Section 2.1 / Figure 2(c):
/// abstract slicing over the domain O x P (allocation site x field) plus a
/// bottom element for values that did not originate from a field. Copy
/// instructions are annotated with the field their value came from, so a
/// chain O1.f -> stack copies -> O3.f can be recovered *including* the
/// intermediate stack hops (unlike the flat copy-graph of prior work).
///
/// Allocation sites are read from the heap object tags (environment P)
/// instead of a duplicate per-object site table, and the shadow-location
/// machinery is the shared ShadowMachine. Compose it after a stage that
/// writes the tags — the TagEnv of a session's client execution, or the
/// SlicingProfiler substrate, which owns one (runtime/ComposedProfiler.h) —
/// so tags exist by the time a load or store touches the object. Objects
/// allocated while tracking was gated off carry no tag and take no part in
/// chains.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_COPYPROFILER_H
#define LUD_PROFILING_COPYPROFILER_H

#include "profiling/DepGraph.h"
#include "profiling/FrozenGraph.h"
#include "profiling/ShadowMachine.h"
#include "profiling/TagEnv.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"
#include "support/FlatMap.h"

#include <vector>

namespace lud {

class Module;
namespace obs {
class MetricsRegistry;
}

/// Interned origin: the ⊥ element is 0 ("not from any field").
using OriginId = uint32_t;
inline constexpr OriginId kBottomOrigin = 0;

/// Cache-line aligned: a session drives the clients on a thread of their
/// own, and no line may also hold the substrate's data (false sharing).
class alignas(64) CopyProfiler {
public:
  /// \p Cfg is the configuration of the stage that tags the heap: its
  /// ContextSlots decode a tag's allocation site, and the client graph
  /// follows its HotPathCaches.
  explicit CopyProfiler(const SlicingConfig &Cfg);

  DepGraph &graph() { return G; }
  const DepGraph &graph() const { return G; }

  /// A completed heap-to-heap copy: data read from From was stored,
  /// unmodified, into To. Count is the number of such element copies.
  struct CopyChain {
    HeapLoc From;
    HeapLoc To;
    uint64_t Count = 0;
    /// Node performing the final store (entry point for walking the
    /// intermediate stack hops backward).
    NodeId StoreNode = kNoNode;
  };
  const std::vector<CopyChain> &chains() const { return Chains; }

  /// Total executed copy-instruction instances (assigns + loads + stores
  /// moving field-originated data without computation).
  uint64_t copyInstances() const { return CopyCount; }

  /// Abstract location for the origin id (inverse of interning);
  /// kBottomOrigin maps to a zero location.
  HeapLoc originLoc(OriginId O) const {
    return O == kBottomOrigin ? HeapLoc{0, 0} : OriginTable[O - 1];
  }

  /// Walks backward from a chain's store node through nodes with the same
  /// origin annotation, returning the intermediate copy instructions
  /// (store first, the load that started the chain last). \p Sealed is
  /// a FrozenGraph of graph(): seal once, then walk every chain.
  static std::vector<InstrId> stackHops(const FrozenGraph &Sealed,
                                        const CopyChain &Chain);

  /// Writes this client's state-derived telemetry (`copy.*` gauges) into
  /// \p R. Idempotent set()s; see SlicingProfiler::accountStats.
  void accountStats(obs::MetricsRegistry &R) const;

  /// Merges another profiler's results into this one, treating \p O as the
  /// later of two sequential runs: graphs fold via DepGraph::mergeFrom,
  /// copy-instance counts sum, and chains merge by (from, to) with counts
  /// summed. Both profilers must come from runs of the same module under
  /// the same configuration (the parallel driver's shards), so that origin
  /// interning — which node domains embed — agrees between them.
  void mergeFrom(const CopyProfiler &O);

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
  void onTrap(const Instruction &, TrapKind, Reg) {}

private:
  /// Shadow payload: the copy-graph node that produced the location's
  /// value plus the field the value originated from.
  struct ShadowVal {
    NodeId N = kNoNode;
    OriginId Origin = kBottomOrigin;
  };

  ShadowVal *regs() { return Sh.regs(); }

  OriginId intern(const HeapLoc &L);
  NodeId hit(const Instruction &I, OriginId Origin, NodeId SrcA = kNoNode,
             NodeId SrcB = kNoNode) {
    return G.hit(I.getId(), Origin, SrcA, SrcB);
  }

  /// Site of the object's allocation, recovered from the heap tag the
  /// ALLOC rule wrote (kNoAllocSite when the object was allocated
  /// untracked).
  AllocSiteId siteOf(ObjId O) const {
    return tagAllocSite(H->obj(O).Tag, ContextSlots);
  }

  /// A chain's identity: its source and destination locations.
  struct ChainKey {
    HeapLoc From, To;
    bool operator==(const ChainKey &O) const {
      return From == O.From && To == O.To;
    }
  };
  struct ChainKeyHash {
    size_t operator()(const ChainKey &K) const {
      return HeapLocHash{}(K.From) * 0x9E3779B97F4A7C15ULL ^
             HeapLocHash{}(K.To);
    }
  };
  struct ChainKeyEmpty {
    static ChainKey value() {
      return {HeapLocEmpty::value(), HeapLocEmpty::value()};
    }
  };
  /// Adds \p Count copies to the chain From -> To, created with store
  /// node \p Store when new.
  void addChain(const HeapLoc &From, const HeapLoc &To, NodeId Store,
                uint64_t Count);

  uint32_t ContextSlots;
  DepGraph G;
  Heap *H = nullptr;
  ShadowMachine<ShadowVal> Sh;
  uint64_t CopyCount = 0;

  std::vector<HeapLoc> OriginTable;
  HeapLocMap<OriginId> OriginIds;
  std::vector<CopyChain> Chains;
  FlatMap<ChainKey, size_t, ChainKeyHash, ChainKeyEmpty> ChainIndex;
};

} // namespace lud

#endif // LUD_PROFILING_COPYPROFILER_H
