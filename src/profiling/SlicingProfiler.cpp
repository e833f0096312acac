//===- profiling/SlicingProfiler.cpp - Gcost construction ------------------===//

#include "profiling/SlicingProfiler.h"

#include "ir/Module.h"
#include "obs/Metrics.h"

#include <cassert>
#include <unordered_set>

using namespace lud;

SlicingProfiler::SlicingProfiler(SlicingConfig Cfg) : Cfg(Cfg), Env(Cfg) {
  G.setContextSlots(Cfg.ContextSlots);
  G.setHotPathMemo(Cfg.HotPathCaches);
}

NodeId SlicingProfiler::hit(const Instruction &I, uint32_t Domain,
                            NodeId SrcA, NodeId SrcB) {
  NodeId Id = G.hit(I.getId(), Domain, SrcA, SrcB);
  if (G.freq(Id) == 1) {
    DepGraph::Node &N = G.node(Id);
    N.ReadsHeap = I.readsHeap();
    N.WritesHeap = I.writesHeap();
    N.IsAlloc = I.isAlloc();
  }
  return Id;
}

void SlicingProfiler::onRunStart(const Module &Mod, Heap &Heap_) {
  M = &Mod;
  H = &Heap_;
  // Per-run shadow state resets so a profiler can be reused across runs
  // (accumulating one graph), matching a merge of single-run profilers.
  Sh.startRun(Heap_, Mod.globals().size());
  LenShadow.clear();
  if (Cfg.HotPathCaches)
    G.reserveForRun(Mod.getNumInstrs());
  G.armMemo(Mod.getNumInstrs());
  Env.onRunStart(Mod, Heap_);
}

void SlicingProfiler::onRunEnd() {}

void SlicingProfiler::onEntryFrame(const Function &F) {
  Env.onEntryFrame(F);
  Sh.enterEntry(F.getNumRegs());
  if (Env.enabled()) {
    uint64_t C = Env.contexts().current();
    seenContextsFor(F.getId()).insert(C);
    LastCtxFunc = F.getId();
    LastCtxVal = C;
  }
}

void SlicingProfiler::onPhase(int64_t Phase) { Env.onPhase(Phase); }

void SlicingProfiler::onConst(const ConstInst &I) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  regs()[I.Dst] = hit(I, dom());
}

void SlicingProfiler::onAssign(const AssignInst &I) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  regs()[I.Dst] = hit(I, dom(), regs()[I.Src]);
}

void SlicingProfiler::onBin(const BinInst &I) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  regs()[I.Dst] = hit(I, dom(), regs()[I.Lhs], regs()[I.Rhs]);
}

void SlicingProfiler::onUn(const UnInst &I) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  regs()[I.Dst] = hit(I, dom(), regs()[I.Src]);
}

void SlicingProfiler::onAlloc(const AllocInst &I, ObjId O) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  NodeId N = hit(I, dom());
  uint64_t Tag = Env.tagAlloc(I.Site, O);
  G.noteAlloc(Tag, N);
  DepGraph::Node &Node = G.node(N);
  Node.Effect = EffectKind::Alloc;
  Node.EffectLoc = {Tag, 0};
  Sh.objShadow(O);
  regs()[I.Dst] = N;
}

void SlicingProfiler::onAllocArray(const AllocArrayInst &I, ObjId O) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  NodeId N = hit(I, dom(), regs()[I.Len]);
  uint64_t Tag = Env.tagAlloc(I.Site, O);
  G.noteAlloc(Tag, N);
  DepGraph::Node &Node = G.node(N);
  Node.Effect = EffectKind::Alloc;
  Node.EffectLoc = {Tag, 0};
  Sh.objShadow(O);
  lenShadow(O) = N;
  G.noteWriter(G.internLoc({Tag, kLenSlot}), N);
  regs()[I.Dst] = N;
}

void SlicingProfiler::onLoadField(const LoadFieldInst &I, ObjId Base,
                                  const Value &) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  NodeId N = hit(I, dom(), loadSlot(Sh.objShadow(Base)[I.Slot]));
  baseEdge(I.Base, N);
  regs()[I.Dst] = N;
  noteLoad(N, H->obj(Base).Tag, I.Slot);
}

void SlicingProfiler::onStoreField(const StoreFieldInst &I, ObjId Base,
                                   const Value &Stored) {
  NodeId N = kNoNode;
  if (Env.enabled()) {
    N = hit(I, dom(), regs()[I.Src]);
    baseEdge(I.Base, N);
  }
  storeSlot(Sh.objShadow(Base)[I.Slot], N, H->obj(Base).Tag, I.Slot, Stored);
}

void SlicingProfiler::storeSlot(uint64_t &E, NodeId N, uint64_t Tag,
                                FieldSlot Slot, const Value &Stored) {
  if (N == kNoNode) {
    E = packSlot(kNoNode, slotState(E));
    return;
  }
  bool Overwrite = slotState(E) == WrittenUnread;
  E = packSlot(N, WrittenUnread);
  noteStore(N, Tag, Slot, Stored, Overwrite);
}

void SlicingProfiler::noteStore(NodeId N, uint64_t Tag, FieldSlot Slot,
                                const Value &Stored, bool Overwrite) {
  if (Tag == kNoTag)
    return;
  DepGraph::Node &Node = G.node(N);
  HeapLoc L{Tag, Slot};
  // Steady state: this node stored to this abstract location before, so
  // its record already lists it as a writer and the reference edge is
  // recorded (the abstract location's allocation node is stable for a
  // given tag) — only the activity counters and the reference-child list
  // can change per event.
  if (!(Cfg.HotPathCaches && Node.Effect == EffectKind::Store &&
        Node.EffectLoc == L)) {
    Node.Effect = EffectKind::Store;
    Node.EffectLoc = L;
    Node.EffectLocId = G.internLoc(L);
    G.noteWriter(Node.EffectLocId, N);
    if (!DepGraph::isStaticTag(Tag)) {
      NodeId Alloc = G.allocNodeFor(Tag);
      if (Alloc != kNoNode)
        G.addRefEdge(N, Alloc);
    }
  }
  LocationActivity &A = G.record(Node.EffectLocId).Activity;
  ++A.Writes;
  A.Overwrites += Overwrite;
  A.ReadsAfterLastWrite = 0;
  if (Stored.isRef()) {
    Node.StoredRef = true;
    if (!Stored.isNullRef()) {
      uint64_t ChildTag = H->obj(Stored.R).Tag;
      if (ChildTag != kNoTag)
        G.noteRefChild(Node.EffectLocId, ChildTag);
    }
  }
}

void SlicingProfiler::noteLoad(NodeId N, uint64_t Tag, FieldSlot Slot) {
  if (Tag == kNoTag)
    return;
  DepGraph::Node &Node = G.node(N);
  HeapLoc L{Tag, Slot};
  if (!(Cfg.HotPathCaches && Node.Effect == EffectKind::Load &&
        Node.EffectLoc == L)) {
    Node.Effect = EffectKind::Load;
    Node.EffectLoc = L;
    Node.EffectLocId = G.internLoc(L);
    G.noteReader(Node.EffectLocId, N);
  }
  LocationActivity &A = G.record(Node.EffectLocId).Activity;
  ++A.Reads;
  ++A.ReadsAfterLastWrite;
}

void SlicingProfiler::onLoadStatic(const LoadStaticInst &I, const Value &) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  NodeId N = hit(I, dom(), loadSlot(Sh.staticAt(I.Global)));
  regs()[I.Dst] = N;
  noteLoad(N, DepGraph::makeStaticTag(I.Global), 0);
}

void SlicingProfiler::onStoreStatic(const StoreStaticInst &I,
                                    const Value &Stored) {
  NodeId N = Env.enabled() ? hit(I, dom(), regs()[I.Src]) : kNoNode;
  storeSlot(Sh.staticAt(I.Global), N, DepGraph::makeStaticTag(I.Global), 0,
            Stored);
}

void SlicingProfiler::onLoadElem(const LoadElemInst &I, ObjId Base,
                                 uint32_t Index, const Value &) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  // The element index is a use even under thin slicing (Section 2.1).
  NodeId N =
      hit(I, dom(), loadSlot(Sh.objShadow(Base)[Index]), regs()[I.Index]);
  baseEdge(I.Base, N);
  regs()[I.Dst] = N;
  noteLoad(N, H->obj(Base).Tag, kElemSlot);
}

void SlicingProfiler::onStoreElem(const StoreElemInst &I, ObjId Base,
                                  uint32_t Index, const Value &Stored) {
  NodeId N = kNoNode;
  if (Env.enabled()) {
    N = hit(I, dom(), regs()[I.Src], regs()[I.Index]);
    baseEdge(I.Base, N);
  }
  storeSlot(Sh.objShadow(Base)[Index], N, H->obj(Base).Tag, kElemSlot,
            Stored);
}

void SlicingProfiler::onArrayLen(const ArrayLenInst &I, ObjId Base) {
  if (!Env.enabled()) {
    regs()[I.Dst] = kNoNode;
    return;
  }
  // Materialize the object's slot shadows as every other tracked access
  // does, so the shadow.heap_* gauges count the objects events touched.
  Sh.objShadow(Base);
  NodeId N = hit(I, dom(), lenShadow(Base));
  baseEdge(I.Base, N);
  regs()[I.Dst] = N;
  noteLoad(N, H->obj(Base).Tag, kLenSlot);
}

void SlicingProfiler::onPredicate(const CondBrInst &I, bool Taken) {
  if (!Env.enabled())
    return;
  NodeId N = hit(I, kNoDomain, regs()[I.Lhs], regs()[I.Rhs]);
  G.node(N).Consumer = ConsumerKind::Predicate;
  if (PredOutcomes.size() <= N)
    PredOutcomes.resize(G.numNodes());
  PredicateOutcome &O = PredOutcomes[N];
  if (Taken)
    ++O.TakenCount;
  else
    ++O.NotTakenCount;
}

void SlicingProfiler::onNativeCall(const NativeCallInst &I) {
  if (!Env.enabled()) {
    if (I.Dst != kNoReg)
      regs()[I.Dst] = kNoNode;
    return;
  }
  NodeId N = hit(I, kNoDomain);
  G.node(N).Consumer = ConsumerKind::Native;
  for (Reg A : I.Args)
    G.addEdge(regs()[A], N);
  if (I.Dst != kNoReg)
    regs()[I.Dst] = N;
}

void SlicingProfiler::onCallEnter(const CallInst &I, const Function &Callee,
                                  ObjId Receiver) {
  Env.onCallEnter(I, Callee, Receiver);
  // Tracking stack: formal parameters receive the actuals' shadows (rule
  // METHOD ENTRY).
  Sh.pushFrame(I, Callee.getNumRegs());
  if (Env.enabled()) {
    uint64_t C = Env.contexts().current();
    FuncId F = Callee.getId();
    if (F != LastCtxFunc || C != LastCtxVal) {
      seenContextsFor(F).insert(C);
      LastCtxFunc = F;
      LastCtxVal = C;
    }
  }
}

void SlicingProfiler::onReturn(const ReturnInst &I) {
  Sh.Pending = Env.enabled() && I.Src != kNoReg
                   ? hit(I, dom(), regs()[I.Src])
                   : kNoNode;
  Sh.popFrame();
  Env.onReturn(I);
}

void SlicingProfiler::onReturnBound(Reg Dst) {
  if (Dst != kNoReg)
    regs()[Dst] = Sh.Pending;
  Sh.Pending = kNoNode;
}

void SlicingProfiler::onTrap(const Instruction &, TrapKind, Reg) {}

double SlicingProfiler::averageCR() const {
  if (!M)
    return 0;
  // Distinct static instructions present in the graph, per function: one
  // seen byte per instruction and one count per function.
  std::vector<uint8_t> Seen(M->getNumInstrs(), 0);
  std::vector<uint64_t> InstrsOf(M->functions().size(), 0);
  for (NodeId N = 0, E = NodeId(G.numNodes()); N != E; ++N) {
    InstrId I = G.node(N).Instr;
    if (Seen[I])
      continue;
    Seen[I] = 1;
    ++InstrsOf[M->getInstrFunction(I)->getId()];
  }
  double WeightedSum = 0;
  uint64_t TotalInstrs = 0;
  for (FuncId Func = 0; Func != FuncId(InstrsOf.size()); ++Func) {
    if (!InstrsOf[Func])
      continue;
    double CR = 0;
    if (Func < SeenContexts.size() && SeenContexts[Func].size() > 1) {
      const FlatSet<uint64_t> &Ctxs = SeenContexts[Func];
      std::unordered_set<uint32_t> UsedSlots;
      for (uint64_t C : Ctxs)
        UsedSlots.insert(Env.contexts().slotOf(C));
      double NumCtx = double(Ctxs.size());
      CR = (NumCtx - double(UsedSlots.size())) / (NumCtx - 1);
    }
    WeightedSum += CR * double(InstrsOf[Func]);
    TotalInstrs += InstrsOf[Func];
  }
  return TotalInstrs == 0 ? 0 : WeightedSum / double(TotalInstrs);
}

uint64_t SlicingProfiler::distinctContexts() const {
  uint64_t Sum = 0;
  for (const FlatSet<uint64_t> &Ctxs : SeenContexts)
    Sum += Ctxs.size();
  return Sum;
}

void SlicingProfiler::accountStats(obs::MetricsRegistry &R) const {
  using obs::Unit;

  // Gcost growth (Table 1's N and M columns, live).
  R.set(R.gauge("gcost.nodes"), G.numNodes());
  R.set(R.gauge("gcost.edges"), G.numEdges());
  R.set(R.gauge("gcost.ref_edges"), G.numRefEdges());
  R.set(R.gauge("gcost.tracked_instances"), G.totalFreq());
  R.set(R.gauge("gcost.distinct_contexts"), distinctContexts());
  // CR is a [0,1] ratio; exported in parts per million so the registry
  // stays integral.
  R.set(R.gauge("gcost.cr_ppm"), uint64_t(averageCR() * 1e6));

  // Heap-activity totals (the overwrite client's raw feed). A location
  // counts as tracked once a store or load event touched it; a record
  // holding only an array's length writer does not.
  uint64_t Writes = 0, Reads = 0, Overwrites = 0, Tracked = 0;
  for (const DepGraph::LocRecord &Rec : G.records()) {
    const LocationActivity &A = Rec.Activity;
    Writes += A.Writes;
    Reads += A.Reads;
    Overwrites += A.Overwrites;
    Tracked += A.Writes != 0 || A.Reads != 0;
  }
  R.set(R.gauge("heap.writes"), Writes);
  R.set(R.gauge("heap.reads"), Reads);
  R.set(R.gauge("heap.overwrites"), Overwrites);
  R.set(R.gauge("heap.tracked_locations"), Tracked);

  uint64_t Taken = 0, NotTaken = 0;
  for (const PredicateOutcome &O : PredOutcomes) {
    Taken += O.TakenCount;
    NotTaken += O.NotTakenCount;
  }
  R.set(R.gauge("predicates.taken"), Taken);
  R.set(R.gauge("predicates.not_taken"), NotTaken);

  // Memory accounting: retained graph vs. interning tables vs. shadow
  // structures vs. hot-path memos — each its own line, because they have
  // different owners and different scaling behavior.
  DepGraph::MemoryFootprint FP = G.memoryFootprint();
  R.set(R.gauge("mem.gcost.node_bytes", Unit::Bytes), FP.NodeBytes);
  R.set(R.gauge("mem.gcost.edge_bytes", Unit::Bytes), FP.EdgeBytes);
  R.set(R.gauge("mem.gcost.locmap_bytes", Unit::Bytes), FP.LocMapBytes);
  R.set(R.gauge("mem.gcost.intern_bytes", Unit::Bytes), FP.InternBytes);

  uint64_t ShadowSlots = 0;
  obs::MetricId SlotsHist = R.histogram("shadow.object_slots");
  R.clear(SlotsHist);
  for (const std::vector<uint64_t> &Slots : Sh.objects()) {
    ShadowSlots += Slots.size();
    if (!Slots.empty())
      R.observe(SlotsHist, Slots.size());
  }
  R.set(R.gauge("mem.shadow.heap_bytes", Unit::Bytes),
        Sh.heapBytes() + LenShadow.capacity() * sizeof(NodeId));
  R.set(R.gauge("shadow.heap_objects"), Sh.objects().size());
  R.set(R.gauge("shadow.heap_slots"), ShadowSlots);
  R.set(R.gauge("mem.shadow.reg_bytes", Unit::Bytes), Sh.regBytes());
  R.set(R.gauge("mem.shadow.static_bytes", Unit::Bytes), Sh.staticBytes());

  size_t CtxBytes = SeenContexts.capacity() * sizeof(FlatSet<uint64_t>);
  for (const FlatSet<uint64_t> &S : SeenContexts)
    CtxBytes += S.memoryBytes();
  R.set(R.gauge("mem.profiler.memo_bytes", Unit::Bytes), G.memoBytes());
  R.set(R.gauge("mem.profiler.context_bytes", Unit::Bytes), CtxBytes);
  R.set(R.gauge("mem.profiler.activity_bytes", Unit::Bytes),
        PredOutcomes.capacity() * sizeof(PredicateOutcome));

  // Node-frequency distribution: how skewed the coverage is (log2 buckets).
  obs::MetricId FreqHist = R.histogram("gcost.node_freq");
  R.clear(FreqHist);
  for (NodeId N = 0, E = NodeId(G.numNodes()); N != E; ++N)
    R.observe(FreqHist, G.freq(N));
}

void SlicingProfiler::mergeFrom(const SlicingProfiler &O) {
  assert(Cfg.ContextSlots == O.Cfg.ContextSlots &&
         "merging profiles built with different context-slot counts");
  std::vector<NodeId> Remap = G.mergeFrom(O.G);
  if (!O.PredOutcomes.empty() && PredOutcomes.size() < G.numNodes())
    PredOutcomes.resize(G.numNodes());
  for (NodeId N = 0; N != NodeId(O.PredOutcomes.size()); ++N) {
    PredicateOutcome &Mine = PredOutcomes[Remap[N]];
    Mine.TakenCount += O.PredOutcomes[N].TakenCount;
    Mine.NotTakenCount += O.PredOutcomes[N].NotTakenCount;
  }
  if (SeenContexts.size() < O.SeenContexts.size())
    SeenContexts.resize(O.SeenContexts.size());
  for (FuncId F = 0; F != FuncId(O.SeenContexts.size()); ++F)
    for (uint64_t C : O.SeenContexts[F])
      SeenContexts[F].insert(C);
  if (!M)
    M = O.M;
}
