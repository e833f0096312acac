//===- profiling/NullnessProfiler.cpp - Null propagation client ------------===//

#include "profiling/NullnessProfiler.h"

#include "ir/Function.h"
#include "ir/Module.h"
#include "profiling/FrozenGraph.h"
#include "obs/Metrics.h"

#include <algorithm>
#include <unordered_map>

using namespace lud;

NullnessProfiler::NullnessProfiler(bool HotPathCaches) {
  G.setHotPathMemo(HotPathCaches);
}

NullnessProfiler::ShadowVal NullnessProfiler::hit(const Instruction &I,
                                                  bool IsNull, NodeId SrcA,
                                                  NodeId SrcB) {
  return {G.hit(I.getId(), IsNull ? kNullDom : kNotNullDom, SrcA, SrcB),
          IsNull};
}

void NullnessProfiler::onRunStart(const Module &Mod, Heap &Heap_) {
  Sh.startRun(Heap_, Mod.globals().size());
  G.armMemo(Mod.getNumInstrs());
}

void NullnessProfiler::onEntryFrame(const Function &F) {
  Sh.enterEntry(F.getNumRegs());
}

void NullnessProfiler::onConst(const ConstInst &I) {
  regs()[I.Dst] = hit(I, I.Lit == ConstInst::LitKind::Null);
}

void NullnessProfiler::onAssign(const AssignInst &I) {
  ShadowVal Src = regs()[I.Src];
  regs()[I.Dst] = hit(I, Src.IsNull, Src.N);
}

void NullnessProfiler::onBin(const BinInst &I) {
  regs()[I.Dst] = hit(I, /*IsNull=*/false, regs()[I.Lhs].N, regs()[I.Rhs].N);
}

void NullnessProfiler::onUn(const UnInst &I) {
  regs()[I.Dst] = hit(I, /*IsNull=*/false, regs()[I.Src].N);
}

void NullnessProfiler::onAlloc(const AllocInst &I, ObjId O) {
  regs()[I.Dst] = hit(I, /*IsNull=*/false);
  Sh.objShadow(O);
}

void NullnessProfiler::onAllocArray(const AllocArrayInst &I, ObjId O) {
  regs()[I.Dst] = hit(I, /*IsNull=*/false, regs()[I.Len].N);
  Sh.objShadow(O);
}

void NullnessProfiler::onLoadField(const LoadFieldInst &I, ObjId Base,
                                   const Value &Loaded) {
  regs()[I.Dst] = hit(I, Loaded.isNullRef(), Sh.objShadow(Base)[I.Slot].N);
}

void NullnessProfiler::onStoreField(const StoreFieldInst &I, ObjId Base,
                                    const Value &Stored) {
  Sh.objShadow(Base)[I.Slot] = hit(I, Stored.isNullRef(), regs()[I.Src].N);
}

void NullnessProfiler::onLoadStatic(const LoadStaticInst &I,
                                    const Value &Loaded) {
  regs()[I.Dst] = hit(I, Loaded.isNullRef(), Sh.staticAt(I.Global).N);
}

void NullnessProfiler::onStoreStatic(const StoreStaticInst &I,
                                     const Value &Stored) {
  Sh.staticAt(I.Global) = hit(I, Stored.isNullRef(), regs()[I.Src].N);
}

void NullnessProfiler::onLoadElem(const LoadElemInst &I, ObjId Base,
                                  uint32_t Index, const Value &Loaded) {
  regs()[I.Dst] = hit(I, Loaded.isNullRef(), Sh.objShadow(Base)[Index].N,
                      regs()[I.Index].N);
}

void NullnessProfiler::onStoreElem(const StoreElemInst &I, ObjId Base,
                                   uint32_t Index, const Value &Stored) {
  Sh.objShadow(Base)[Index] =
      hit(I, Stored.isNullRef(), regs()[I.Src].N, regs()[I.Index].N);
}

void NullnessProfiler::onArrayLen(const ArrayLenInst &I, ObjId) {
  regs()[I.Dst] = hit(I, /*IsNull=*/false);
}

void NullnessProfiler::onPredicate(const CondBrInst &I, bool) {
  NodeId N = G.hit(I.getId(), kNoDomain, regs()[I.Lhs].N, regs()[I.Rhs].N);
  G.node(N).Consumer = ConsumerKind::Predicate;
}

void NullnessProfiler::onNativeCall(const NativeCallInst &I) {
  NodeId N = G.hit(I.getId(), kNoDomain);
  G.node(N).Consumer = ConsumerKind::Native;
  for (Reg A : I.Args)
    G.addEdge(regs()[A].N, N);
  if (I.Dst != kNoReg)
    regs()[I.Dst] = {N, false};
}

void NullnessProfiler::onCallEnter(const CallInst &I, const Function &Callee,
                                   ObjId) {
  Sh.pushFrame(I, Callee.getNumRegs());
}

void NullnessProfiler::onReturn(const ReturnInst &I) {
  Sh.Pending = ShadowVal();
  if (I.Src != kNoReg) {
    ShadowVal Src = regs()[I.Src];
    Sh.Pending = hit(I, Src.IsNull, Src.N);
  }
  Sh.popFrame();
}

void NullnessProfiler::onReturnBound(Reg Dst) {
  if (Dst != kNoReg)
    regs()[Dst] = Sh.Pending;
  Sh.Pending = ShadowVal();
}

void NullnessProfiler::onTrap(const Instruction &, TrapKind K, Reg FaultReg) {
  if (K != TrapKind::NullDeref || FaultReg == kNoReg)
    return;
  Fault = regs()[FaultReg].N;
}

void NullnessProfiler::accountStats(obs::MetricsRegistry &R) const {
  R.set(R.gauge("nullness.graph.nodes"), G.numNodes());
  R.set(R.gauge("nullness.graph.edges"), G.numEdges());
  R.set(R.gauge("nullness.fault"), Fault != kNoNode ? 1 : 0);
  R.set(R.gauge("mem.nullness.graph_bytes", obs::Unit::Bytes),
        G.memoryFootprint().total() + G.memoBytes());
}

void NullnessProfiler::mergeFrom(const NullnessProfiler &O) {
  std::vector<NodeId> Remap = G.mergeFrom(O.G);
  if (O.Fault != kNoNode)
    Fault = Remap[O.Fault];
}

NullTrace lud::traceNullOrigin(const NullnessProfiler &P) {
  NullTrace Trace;
  NodeId Fault = P.faultNode();
  if (Fault == kNoNode || P.graph().node(Fault).Domain != kNullDom)
    return Trace;
  const FrozenGraph G(P.graph());

  // Backward BFS restricted to null-annotated nodes, recording parents so
  // a shortest propagation path can be reconstructed.
  std::unordered_map<NodeId, NodeId> Parent;
  std::vector<NodeId> Queue{Fault};
  Parent[Fault] = kNoNode;
  NodeId Origin = kNoNode;
  for (size_t Head = 0; Head != Queue.size(); ++Head) {
    NodeId N = Queue[Head];
    bool HasNullPred = false;
    for (NodeId M : G.in(N)) {
      if (G.domain(M) != kNullDom)
        continue;
      HasNullPred = true;
      if (!Parent.count(M)) {
        Parent[M] = N;
        Queue.push_back(M);
      }
    }
    if (!HasNullPred && Origin == kNoNode)
      Origin = N; // First (closest) node with no null predecessor.
  }
  if (Origin == kNoNode)
    return Trace;

  Trace.Origin = G.instr(Origin);
  for (NodeId N = Origin; N != kNoNode; N = Parent[N])
    Trace.Flow.push_back(G.instr(N));
  return Trace;
}
