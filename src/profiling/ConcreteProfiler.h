//===- profiling/ConcreteProfiler.h - Definition 1 graphs ------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The *concrete* dynamic thin data dependence graph of Definition 1: one
/// node per instruction instance, so memory grows with the execution — the
/// very scaling problem abstract slicing (Definition 2) solves. It exists
/// here for two purposes:
///
///  1. Definition 3's absolute cost is defined on this graph; and
///  2. the soundness tests check the abstract graph is a quotient of this
///     one: every concrete node maps to the abstract node of its
///     (instruction, domain) class with matching frequencies, and every
///     concrete edge maps to an abstract edge.
///
/// Each node also records the context slot the abstract profiler would
/// have assigned, so the quotient is checkable without re-deriving
/// contexts. A hard node cap guards against runaway memory; use small
/// runs.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_CONCRETEPROFILER_H
#define LUD_PROFILING_CONCRETEPROFILER_H

#include "profiling/Context.h"
#include "profiling/DepGraph.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"

#include <vector>

namespace lud {

class Module;

using CNodeId = uint32_t;
inline constexpr CNodeId kNoCNode = 0xFFFFFFFF;

class ConcreteProfiler {
public:
  struct CNode {
    InstrId Instr = kNoInstr;
    /// Which occurrence of the instruction this is (1-based, the paper's
    /// j in a^j).
    uint64_t Occurrence = 0;
    /// Abstract domain element the slicing profiler would assign (context
    /// slot, or kNoDomain for predicate/native consumer nodes).
    uint32_t AbsDomain = 0;
    std::vector<CNodeId> In;
    std::vector<CNodeId> Out;
  };

  explicit ConcreteProfiler(uint32_t ContextSlots = 16,
                            size_t MaxNodes = 1u << 22)
      : Ctx(ContextSlots), MaxNodes(MaxNodes) {
    Ctx.reset();
  }

  const std::vector<CNode> &nodes() const { return Nodes; }
  size_t numEdges() const { return EdgeCount; }
  /// True if the run outgrew MaxNodes (results are then partial).
  bool overflowed() const { return Overflowed; }

  /// Definition 3: number of nodes that can reach \p N (including N).
  uint64_t absoluteCost(CNodeId N) const;

  /// All concrete instances of instruction \p I.
  std::vector<CNodeId> instancesOf(InstrId I) const;

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
  std::vector<CNodeId> &regs() { return RegShadow.back(); }
  std::vector<CNodeId> &objShadow(ObjId O);

  /// New concrete node for this instance of \p I.
  CNodeId fresh(const Instruction &I, uint32_t AbsDomain);
  void edgeFrom(CNodeId Src, CNodeId To) {
    if (Src == kNoCNode || Src == To)
      return;
    Nodes[Src].Out.push_back(To);
    Nodes[To].In.push_back(Src);
    ++EdgeCount;
  }

  ContextEncoder Ctx;
  size_t MaxNodes;
  bool Overflowed = false;
  Heap *H = nullptr;
  std::vector<CNode> Nodes;
  size_t EdgeCount = 0;
  std::vector<uint64_t> OccurrenceCount; // per InstrId
  std::vector<std::vector<CNodeId>> RegShadow;
  std::vector<std::vector<CNodeId>> HeapShadow;
  std::vector<CNodeId> LenShadow; // per ObjId: the allocating node
  std::vector<CNodeId> StaticShadow;
  std::vector<AllocSiteId> SiteOf; // per ObjId (for receiver chains)
  CNodeId PendingRet = kNoCNode;
};

} // namespace lud

#endif // LUD_PROFILING_CONCRETEPROFILER_H
