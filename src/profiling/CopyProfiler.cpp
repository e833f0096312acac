//===- profiling/CopyProfiler.cpp - Extended copy profiling ----------------===//

#include "profiling/CopyProfiler.h"

#include "ir/Function.h"
#include "ir/Module.h"
#include "obs/Metrics.h"

#include <cassert>

using namespace lud;

CopyProfiler::CopyProfiler(const SlicingConfig &Cfg)
    : ContextSlots(Cfg.ContextSlots) {
  G.setHotPathMemo(Cfg.HotPathCaches);
}

OriginId CopyProfiler::intern(const HeapLoc &L) {
  // 1-based; 0 is bottom.
  auto [Id, Inserted] =
      OriginIds.insert(L, OriginId(OriginTable.size() + 1));
  if (Inserted)
    OriginTable.push_back(L);
  return Id;
}

void CopyProfiler::onRunStart(const Module &Mod, Heap &Heap_) {
  H = &Heap_;
  Sh.startRun(Heap_, Mod.globals().size());
  G.armMemo(Mod.getNumInstrs());
}

void CopyProfiler::onEntryFrame(const Function &F) {
  Sh.enterEntry(F.getNumRegs());
}

void CopyProfiler::onConst(const ConstInst &I) {
  regs()[I.Dst] = {hit(I, kBottomOrigin), kBottomOrigin};
}

void CopyProfiler::onAssign(const AssignInst &I) {
  // A register copy keeps the origin alive: this is an intermediate stack
  // hop of a copy chain.
  ShadowVal Src = regs()[I.Src];
  regs()[I.Dst] = {hit(I, Src.Origin, Src.N), Src.Origin};
  if (Src.Origin != kBottomOrigin)
    ++CopyCount;
}

void CopyProfiler::onBin(const BinInst &I) {
  regs()[I.Dst] = {hit(I, kBottomOrigin, regs()[I.Lhs].N, regs()[I.Rhs].N),
                   kBottomOrigin};
}

void CopyProfiler::onUn(const UnInst &I) {
  regs()[I.Dst] = {hit(I, kBottomOrigin, regs()[I.Src].N), kBottomOrigin};
}

void CopyProfiler::onAlloc(const AllocInst &I, ObjId O) {
  regs()[I.Dst] = {hit(I, kBottomOrigin), kBottomOrigin};
  Sh.objShadow(O);
}

void CopyProfiler::onAllocArray(const AllocArrayInst &I, ObjId O) {
  regs()[I.Dst] = {hit(I, kBottomOrigin, regs()[I.Len].N), kBottomOrigin};
  Sh.objShadow(O);
}

void CopyProfiler::onLoadField(const LoadFieldInst &I, ObjId Base,
                               const Value &) {
  // The loaded value originates from this field: a chain starts here.
  AllocSiteId Site = siteOf(Base);
  OriginId Origin =
      Site == kNoAllocSite ? kBottomOrigin : intern(HeapLoc{Site, I.Slot});
  regs()[I.Dst] = {hit(I, Origin, Sh.objShadow(Base)[I.Slot].N), Origin};
  if (Origin != kBottomOrigin)
    ++CopyCount;
}

void CopyProfiler::onStoreField(const StoreFieldInst &I, ObjId Base,
                                const Value &) {
  ShadowVal Src = regs()[I.Src];
  NodeId N = hit(I, Src.Origin, Src.N);
  Sh.objShadow(Base)[I.Slot] = {N, Src.Origin};
  AllocSiteId Site = siteOf(Base);
  if (Src.Origin != kBottomOrigin && Site != kNoAllocSite) {
    ++CopyCount;
    addChain(originLoc(Src.Origin), HeapLoc{Site, I.Slot}, N, 1);
  }
}

void CopyProfiler::onLoadStatic(const LoadStaticInst &I, const Value &) {
  OriginId Origin = intern(HeapLoc{kStaticTagBase + I.Global, 0});
  regs()[I.Dst] = {hit(I, Origin, Sh.staticAt(I.Global).N), Origin};
  ++CopyCount;
}

void CopyProfiler::onStoreStatic(const StoreStaticInst &I, const Value &) {
  ShadowVal Src = regs()[I.Src];
  NodeId N = hit(I, Src.Origin, Src.N);
  Sh.staticAt(I.Global) = {N, Src.Origin};
  if (Src.Origin != kBottomOrigin) {
    ++CopyCount;
    addChain(originLoc(Src.Origin), HeapLoc{kStaticTagBase + I.Global, 0}, N,
             1);
  }
}

void CopyProfiler::onLoadElem(const LoadElemInst &I, ObjId Base, uint32_t Index,
                              const Value &) {
  AllocSiteId Site = siteOf(Base);
  OriginId Origin =
      Site == kNoAllocSite ? kBottomOrigin : intern(HeapLoc{Site, kElemSlot});
  regs()[I.Dst] = {hit(I, Origin, Sh.objShadow(Base)[Index].N), Origin};
  if (Origin != kBottomOrigin)
    ++CopyCount;
}

void CopyProfiler::onStoreElem(const StoreElemInst &I, ObjId Base,
                               uint32_t Index, const Value &) {
  ShadowVal Src = regs()[I.Src];
  NodeId N = hit(I, Src.Origin, Src.N);
  Sh.objShadow(Base)[Index] = {N, Src.Origin};
  AllocSiteId Site = siteOf(Base);
  if (Src.Origin != kBottomOrigin && Site != kNoAllocSite) {
    ++CopyCount;
    addChain(originLoc(Src.Origin), HeapLoc{Site, kElemSlot}, N, 1);
  }
}

void CopyProfiler::onArrayLen(const ArrayLenInst &I, ObjId) {
  regs()[I.Dst] = {hit(I, kBottomOrigin), kBottomOrigin};
}

void CopyProfiler::onPredicate(const CondBrInst &I, bool) {
  NodeId N = hit(I, kNoDomain, regs()[I.Lhs].N, regs()[I.Rhs].N);
  G.node(N).Consumer = ConsumerKind::Predicate;
}

void CopyProfiler::onNativeCall(const NativeCallInst &I) {
  NodeId N = hit(I, kNoDomain);
  G.node(N).Consumer = ConsumerKind::Native;
  for (Reg A : I.Args)
    G.addEdge(regs()[A].N, N);
  if (I.Dst != kNoReg)
    regs()[I.Dst] = {N, kBottomOrigin};
}

void CopyProfiler::onCallEnter(const CallInst &I, const Function &Callee,
                               ObjId) {
  Sh.pushFrame(I, Callee.getNumRegs());
}

void CopyProfiler::onReturn(const ReturnInst &I) {
  Sh.Pending = ShadowVal();
  if (I.Src != kNoReg) {
    ShadowVal Src = regs()[I.Src];
    Sh.Pending = {hit(I, Src.Origin, Src.N), Src.Origin};
    if (Src.Origin != kBottomOrigin)
      ++CopyCount;
  }
  Sh.popFrame();
}

void CopyProfiler::onReturnBound(Reg Dst) {
  if (Dst != kNoReg)
    regs()[Dst] = Sh.Pending;
  Sh.Pending = ShadowVal();
}

void CopyProfiler::addChain(const HeapLoc &From, const HeapLoc &To,
                            NodeId Store, uint64_t Count) {
  auto [Idx, Inserted] = ChainIndex.insert(ChainKey{From, To}, Chains.size());
  if (Inserted)
    Chains.push_back({From, To, 0, Store});
  Chains[Idx].Count += Count;
}

void CopyProfiler::accountStats(obs::MetricsRegistry &R) const {
  R.set(R.gauge("copy.instances"), CopyCount);
  R.set(R.gauge("copy.chains"), Chains.size());
  uint64_t ChainCopies = 0;
  for (const CopyChain &C : Chains)
    ChainCopies += C.Count;
  R.set(R.gauge("copy.chain_copies"), ChainCopies);
  R.set(R.gauge("copy.origins"), OriginTable.size());
  R.set(R.gauge("copy.graph.nodes"), G.numNodes());
  R.set(R.gauge("copy.graph.edges"), G.numEdges());
  R.set(R.gauge("mem.copy.graph_bytes", obs::Unit::Bytes),
        G.memoryFootprint().total() + G.memoBytes());
}

void CopyProfiler::mergeFrom(const CopyProfiler &O) {
  std::vector<NodeId> Remap = G.mergeFrom(O.G);
  CopyCount += O.CopyCount;
  // Origins must intern to the same ids here as in O: node domains embed
  // them. Deterministic shards of one module intern in the same order, so
  // this re-interning is the identity (checked), merely extending this
  // table with origins O saw first.
  for (size_t I = 0; I != O.OriginTable.size(); ++I) {
    OriginId R = intern(O.OriginTable[I]);
    assert(R == OriginId(I + 1) &&
           "merged profilers interned origins in different orders");
    (void)R;
  }
  for (const CopyChain &C : O.Chains)
    addChain(C.From, C.To, Remap[C.StoreNode], C.Count);
}

std::vector<InstrId> CopyProfiler::stackHops(const FrozenGraph &G,
                                             const CopyChain &Chain) {
  std::vector<InstrId> Hops;
  // Follow same-origin predecessors from the final store back to the load
  // that started the chain.
  OriginId Origin = G.domain(Chain.StoreNode);
  NodeId N = Chain.StoreNode;
  std::vector<bool> Seen(G.numNodes(), false);
  while (N != kNoNode && !Seen[N]) {
    Seen[N] = true;
    Hops.push_back(G.instr(N));
    NodeId Next = kNoNode;
    for (NodeId P : G.in(N)) {
      if (G.domain(P) == Origin) {
        Next = P;
        break;
      }
    }
    N = Next;
  }
  return Hops;
}
