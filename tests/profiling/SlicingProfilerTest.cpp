//===- tests/profiling/SlicingProfilerTest.cpp - Figure 4 rules ------------===//

#include "../TestUtil.h"

#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

TEST(SlicingProfilerTest, StraightLineDependences) {
  // Figure 1: a = 0; c = f(a); d = c * 3; b = c + d; f(e) = e >> 2.
  Module M;
  IRBuilder B(M);
  B.beginFunction("f", 1);
  Reg Two = B.iconst(2);
  Reg Sh = B.bin(BinOp::Shr, 0, Two);
  B.ret(Sh);
  B.endFunction();

  B.beginFunction("main", 0);
  Reg A = B.iconst(0);
  Reg C = B.call("f", {A});
  Reg Three = B.iconst(3);
  Reg D = B.mul(C, Three);
  Reg Bv = B.add(C, D);
  B.ncallVoid("sink", {Bv});
  B.ret();
  B.endFunction();
  M.finalize();

  RunResult R;
  SlicingProfiler P = profileRun(M, {}, &R);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  const FrozenGraph G(P.graph());

  // One node per executed instruction (single context each); instructions:
  // f: iconst2, shr, ret ; main: iconst0, call(no node), iconst3, mul, add,
  // sink-native, ret(void, no node).
  InstrId ShrId = 1, RetId = 2, Const0 = 3, MulId = 6, AddId = 7;
  NodeId NShr = soleNodeFor(G, ShrId);
  NodeId NRet = soleNodeFor(G, RetId);
  NodeId NA = soleNodeFor(G, Const0);
  NodeId NMul = soleNodeFor(G, MulId);
  NodeId NAdd = soleNodeFor(G, AddId);
  ASSERT_NE(NShr, kNoNode);
  ASSERT_NE(NRet, kNoNode);
  ASSERT_NE(NA, kNoNode);
  ASSERT_NE(NMul, kNoNode);
  ASSERT_NE(NAdd, kNoNode);

  // a flows into f's shr via parameter passing (no node for the binding).
  EXPECT_TRUE(hasEdge(G, NA, NShr));
  // shr -> ret -> mul and -> add (c used twice).
  EXPECT_TRUE(hasEdge(G, NShr, NRet));
  EXPECT_TRUE(hasEdge(G, NRet, NMul));
  EXPECT_TRUE(hasEdge(G, NRet, NAdd));
  EXPECT_TRUE(hasEdge(G, NMul, NAdd));
  // No direct shr -> mul edge: the return value flows through the return.
  EXPECT_FALSE(hasEdge(G, NShr, NMul));
}

TEST(SlicingProfilerTest, ThinSlicingIgnoresBasePointers) {
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg V = B.iconst(5);
  B.storeField(O, A->getId(), "f", V);
  Reg L = B.loadField(O, A->getId(), "f");
  B.ncallVoid("sink", {L});
  B.ret();
  B.endFunction();
  M.finalize();

  InstrId AllocId = 0, ConstId = 1, StoreId = 2, LoadId = 3;

  // Thin: the load depends only on the store (which depends on the const).
  {
    SlicingProfiler P = profileRun(M);
    const FrozenGraph G(P.graph());
    NodeId NLoad = soleNodeFor(G, LoadId);
    NodeId NStore = soleNodeFor(G, StoreId);
    NodeId NAlloc = soleNodeFor(G, AllocId);
    NodeId NConst = soleNodeFor(G, ConstId);
    ASSERT_NE(NLoad, kNoNode);
    EXPECT_TRUE(hasEdge(G, NStore, NLoad));
    EXPECT_TRUE(hasEdge(G, NConst, NStore));
    EXPECT_FALSE(hasEdge(G, NAlloc, NLoad));
    EXPECT_FALSE(hasEdge(G, NAlloc, NStore));
  }

  // Traditional (ablation): base-pointer values are uses too.
  {
    SlicingConfig Cfg;
    Cfg.ThinSlicing = false;
    SlicingProfiler P = profileRun(M, Cfg);
    const FrozenGraph G(P.graph());
    NodeId NLoad = soleNodeFor(G, LoadId);
    NodeId NStore = soleNodeFor(G, StoreId);
    NodeId NAlloc = soleNodeFor(G, AllocId);
    EXPECT_TRUE(hasEdge(G, NAlloc, NLoad));
    EXPECT_TRUE(hasEdge(G, NAlloc, NStore));
    EXPECT_TRUE(hasEdge(G, NStore, NLoad));
  }
}

TEST(SlicingProfilerTest, LoopFrequenciesAccumulate) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg Sum = B.iconst(0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(100);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  Instruction *Pred = nullptr;
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  Pred = B.block()->terminator();
  B.setBlock(Body);
  B.binInto(Sum, BinOp::Add, Sum, I);
  Instruction *AddI = B.block()->insts().back().get();
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ncallVoid("sink", {Sum});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const DepGraph &G = P.graph();
  NodeId NAdd = soleNodeFor(G, AddI->getId());
  ASSERT_NE(NAdd, kNoNode);
  EXPECT_EQ(G.freq(NAdd), 100u);
  NodeId NPred = soleNodeFor(G, Pred->getId());
  ASSERT_NE(NPred, kNoNode);
  EXPECT_EQ(G.freq(NPred), 101u);
  EXPECT_EQ(G.node(NPred).Consumer, ConsumerKind::Predicate);
  EXPECT_EQ(G.node(NPred).Domain, kNoDomain);
  // Loop-carried self-dependence collapses onto one abstract node; total
  // graph stays bounded by static code size regardless of trip count.
  EXPECT_LE(G.numNodes(), uint64_t(M.getNumInstrs()));
}

TEST(SlicingProfilerTest, ObjectContextsSplitNodes) {
  // helper method m reads this.f; called on objects from two different
  // allocation sites => two context slots => two abstract nodes.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginMethod(A->getId(), "get", 1);
  Reg V = B.loadField(0, A->getId(), "f");
  Instruction *Load = B.block()->insts().back().get();
  B.ret(V);
  B.endFunction();

  B.beginFunction("main", 0);
  Reg O1 = B.alloc(A->getId());
  Reg O2 = B.alloc(A->getId());
  Reg C = B.iconst(3);
  B.storeField(O1, A->getId(), "f", C);
  B.storeField(O2, A->getId(), "f", C);
  Reg R1 = B.vcall("get", {O1});
  Reg R2 = B.vcall("get", {O2});
  Reg S = B.add(R1, R2);
  B.ncallVoid("sink", {S});
  B.ret();
  B.endFunction();
  M.finalize();

  {
    SlicingConfig Cfg;
    Cfg.ContextSlots = 64; // Plenty: no conflicts.
    SlicingProfiler P = profileRun(M, Cfg);
    EXPECT_EQ(nodesFor(P.graph(), Load->getId()).size(), 2u);
    EXPECT_DOUBLE_EQ(P.averageCR(), 0.0);
  }
  {
    SlicingConfig Cfg;
    Cfg.ContextSensitive = false;
    SlicingProfiler P = profileRun(M, Cfg);
    EXPECT_EQ(nodesFor(P.graph(), Load->getId()).size(), 1u);
  }
  {
    // One slot: both contexts collide; CR becomes 1 for the method.
    SlicingConfig Cfg;
    Cfg.ContextSlots = 1;
    SlicingProfiler P = profileRun(M, Cfg);
    EXPECT_EQ(nodesFor(P.graph(), Load->getId()).size(), 1u);
    EXPECT_GT(P.averageCR(), 0.0);
  }
}

TEST(SlicingProfilerTest, TagsAndReferenceEdges) {
  Module M;
  ClassDecl *L = M.addClass("List");
  L->addField("head", Type::makeRef());
  ClassDecl *N = M.addClass("Node");
  N->addField("v", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg List = B.alloc(L->getId());
  Reg Node = B.alloc(N->getId());
  Reg V = B.iconst(42);
  B.storeField(Node, N->getId(), "v", V);
  B.storeField(List, L->getId(), "head", Node);
  Reg H = B.loadField(List, L->getId(), "head");
  B.ncallVoid("sink", {H});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const DepGraph &G = P.graph();
  InstrId AllocList = 0, AllocNode = 1, StoreV = 3, StoreHead = 4;
  NodeId NAllocList = soleNodeFor(G, AllocList);
  NodeId NAllocNode = soleNodeFor(G, AllocNode);
  NodeId NStoreV = soleNodeFor(G, StoreV);
  NodeId NStoreHead = soleNodeFor(G, StoreHead);

  // Reference edges: each store connects to the allocation of its base.
  bool SawVEdge = false, SawHeadEdge = false;
  for (auto [S, A] : G.refEdges()) {
    if (S == NStoreV && A == NAllocNode)
      SawVEdge = true;
    if (S == NStoreHead && A == NAllocList)
      SawHeadEdge = true;
  }
  EXPECT_TRUE(SawVEdge);
  EXPECT_TRUE(SawHeadEdge);

  // The head field records a reference-tree child: the Node's tag.
  uint64_t ListTag = G.node(NAllocList).EffectLoc.Tag;
  uint64_t NodeTag = G.node(NAllocNode).EffectLoc.Tag;
  FieldSlot HeadSlot;
  ASSERT_TRUE(M.resolveField(L->getId(), "head", HeadSlot));
  auto It = G.refChildren().find(HeapLoc{ListTag, HeadSlot});
  ASSERT_NE(It, G.refChildren().end());
  ASSERT_EQ(It->second.size(), 1u);
  EXPECT_EQ(It->second[0], NodeTag);

  // Writers/readers recorded per abstract location.
  FieldSlot VSlot;
  ASSERT_TRUE(M.resolveField(N->getId(), "v", VSlot));
  EXPECT_EQ(G.writers().count(HeapLoc{NodeTag, VSlot}), 1u);
  EXPECT_EQ(G.readers().count(HeapLoc{ListTag, HeadSlot}), 1u);
}

TEST(SlicingProfilerTest, PhaseGatingSuppressesTracking) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg Ph1 = B.iconst(1);
  B.ncallVoid("phase", {Ph1});
  Reg A = B.iconst(10); // Executed in phase 1 (untracked below).
  Reg Bv = B.add(A, A);
  Reg Ph2 = B.iconst(2);
  B.ncallVoid("phase", {Ph2});
  Reg C = B.iconst(20); // Phase 2 (tracked below).
  Reg D = B.add(C, C);
  B.ncallVoid("sink", {Bv});
  B.ncallVoid("sink", {D});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingConfig Cfg;
  Cfg.TrackedPhaseMask = (1ull << 0) | (1ull << 2); // Track phases 0 and 2.
  SlicingProfiler P = profileRun(M, Cfg);
  const DepGraph &G = P.graph();
  InstrId ConstA = 2, AddB = 3, ConstC = 6, AddD = 7;
  EXPECT_TRUE(nodesFor(G, ConstA).empty());
  EXPECT_TRUE(nodesFor(G, AddB).empty());
  EXPECT_EQ(nodesFor(G, ConstC).size(), 1u);
  EXPECT_EQ(nodesFor(G, AddD).size(), 1u);
}

/// The three kinds of shadow slot a load or store goes through.
enum class SlotKind { Field, Element, Static };
constexpr SlotKind kSlotKinds[] = {SlotKind::Field, SlotKind::Element,
                                   SlotKind::Static};

const char *slotKindName(SlotKind K) {
  switch (K) {
  case SlotKind::Field:
    return "field";
  case SlotKind::Element:
    return "element";
  case SlotKind::Static:
    return "static";
  }
  return "?";
}

/// One int slot of kind K, accessed from the function \p B is building:
/// field `f` of a fresh object, element 0 of a fresh one-element array, or
/// a global. The constructor emits the holder's allocation, if any.
class OneSlot {
public:
  OneSlot(Module &M, IRBuilder &B, SlotKind K) : B(B), K(K) {
    switch (K) {
    case SlotKind::Field: {
      ClassDecl *A = M.addClass("A");
      A->addField("f", Type::makeInt());
      Class = A->getId();
      M.resolveField(Class, "f", Field);
      Holder = B.alloc(Class);
      AllocInst = B.block()->terminator();
      break;
    }
    case SlotKind::Element:
      Index = B.iconst(0);
      Holder = B.allocArray(TypeKind::Int, B.iconst(1));
      AllocInst = B.block()->terminator();
      break;
    case SlotKind::Static:
      Global = M.addGlobal("g", Type::makeInt());
      break;
    }
  }

  /// Emits a load of the slot.
  Reg load() {
    switch (K) {
    case SlotKind::Field:
      return B.loadField(Holder, Class, "f");
    case SlotKind::Element:
      return B.loadElem(Holder, Index);
    case SlotKind::Static:
      return B.loadStatic(Global);
    }
    return kNoReg;
  }

  /// Emits a store of \p V to the slot.
  void store(Reg V) {
    switch (K) {
    case SlotKind::Field:
      B.storeField(Holder, Class, "f", V);
      break;
    case SlotKind::Element:
      B.storeElem(Holder, Index, V);
      break;
    case SlotKind::Static:
      B.storeStatic(Global, V);
      break;
    }
  }

  /// The slot's abstract heap location in \p G (after the run).
  HeapLoc loc(const DepGraph &G) const {
    if (K == SlotKind::Static)
      return HeapLoc{DepGraph::makeStaticTag(Global), 0};
    uint64_t Tag = G.node(soleNodeFor(G, AllocInst->getId())).EffectLoc.Tag;
    return HeapLoc{Tag, K == SlotKind::Field ? Field : kElemSlot};
  }

private:
  IRBuilder &B;
  SlotKind K;
  ClassId Class = kNoClass;
  FieldSlot Field = 0;
  GlobalId Global = 0;
  Reg Holder = kNoReg, Index = kNoReg;
  const Instruction *AllocInst = nullptr;
};

TEST(SlicingProfilerTest, OverwriteDetection) {
  for (SlotKind K : kSlotKinds) {
    SCOPED_TRACE(slotKindName(K));
    Module M;
    IRBuilder B(M);
    B.beginFunction("main", 0);
    OneSlot S(M, B, K);
    Reg V = B.iconst(1);
    S.store(V); // write 1 (clobbered unread)
    S.store(V); // write 2 (read below)
    Reg L = S.load();
    S.store(L); // write 3 (never read again)
    B.ncallVoid("sink", {L});
    B.ret();
    B.endFunction();
    M.finalize();

    SlicingProfiler P = profileRun(M);
    auto It = P.locationActivity().find(S.loc(P.graph()));
    ASSERT_NE(It, P.locationActivity().end());
    EXPECT_EQ(It->second.Writes, 3u);
    EXPECT_EQ(It->second.Reads, 1u);
    EXPECT_EQ(It->second.Overwrites, 1u);
  }
}

TEST(SlicingProfilerTest, UntrackedAccessesKeepSlotState) {
  for (SlotKind K : kSlotKinds) {
    SCOPED_TRACE(slotKindName(K));
    Module M;
    IRBuilder B(M);
    B.beginFunction("main", 0);
    OneSlot S(M, B, K);
    auto Phase = [&](int64_t N) { B.ncallVoid("phase", {B.iconst(N)}); };
    Reg V = B.iconst(1);
    S.store(V); // Phase 0, tracked: written, unread.
    Phase(1);
    Reg Untracked = S.load(); // Untracked: must not mark the slot read.
    S.store(V); // Untracked: clears the writer, keeps "unread".
    Phase(2);
    S.store(V); // Still unread since phase 0: an overwrite.
    Reg L1 = S.load(); // Now read.
    const Instruction *Read1 = B.block()->terminator();
    Phase(3);
    S.store(V); // Untracked: clears the writer, keeps "read".
    Phase(4);
    S.store(V); // Read since the last tracked store: no overwrite.
    Phase(5);
    S.store(V); // Untracked: the next load must see no writer.
    Phase(6);
    Reg L2 = S.load();
    const Instruction *Read2 = B.block()->terminator();
    Reg Sum = B.add(Untracked, Untracked);
    const Instruction *Add = B.block()->terminator();
    B.ncallVoid("sink", {Sum});
    B.ncallVoid("sink", {L1});
    B.ncallVoid("sink", {L2});
    B.ret();
    B.endFunction();
    M.finalize();

    SlicingConfig Cfg;
    Cfg.TrackedPhaseMask = (1ull << 0) | (1ull << 2) | (1ull << 4) |
                           (1ull << 6);
    SlicingProfiler P = profileRun(M, Cfg);
    const DepGraph &G = P.graph();
    auto It = P.locationActivity().find(S.loc(G));
    ASSERT_NE(It, P.locationActivity().end());
    EXPECT_EQ(It->second.Writes, 3u);
    EXPECT_EQ(It->second.Reads, 2u);
    EXPECT_EQ(It->second.Overwrites, 1u);
    // The untracked load left no writer in its destination register,
    // though the slot still held a tracked one.
    const FrozenGraph F(G);
    EXPECT_EQ(F.inDegree(soleNodeFor(F, Add->getId())), 0u);
    // A tracked load sees the tracked store before it, but nothing through
    // an untracked store.
    EXPECT_EQ(F.inDegree(soleNodeFor(F, Read1->getId())),
              K == SlotKind::Element ? 2u : 1u);
    EXPECT_EQ(F.inDegree(soleNodeFor(F, Read2->getId())),
              K == SlotKind::Element ? 1u : 0u);
  }
}

TEST(SlicingProfilerTest, PredicateOutcomeCounts) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(10);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  Instruction *Pred = B.block()->terminator();
  B.setBlock(Body);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  NodeId NP = soleNodeFor(P.graph(), Pred->getId());
  ASSERT_NE(NP, kNoNode);
  auto It = P.predicateOutcomes().find(NP);
  ASSERT_NE(It, P.predicateOutcomes().end());
  EXPECT_EQ(It->second.TakenCount, 10u);
  EXPECT_EQ(It->second.NotTakenCount, 1u);
}

TEST(SlicingProfilerTest, GraphMemoryIsBoundedByAbstraction) {
  // Running the same loop 10x longer must not grow the graph.
  auto Build = [](int64_t Iters) {
    auto M = std::make_unique<Module>();
    IRBuilder B(*M);
    B.beginFunction("main", 0);
    Reg Sum = B.iconst(0);
    Reg I = B.iconst(0);
    Reg N = B.iconst(Iters);
    Reg One = B.iconst(1);
    BasicBlock *H = B.newBlock();
    BasicBlock *Body = B.newBlock();
    BasicBlock *Exit = B.newBlock();
    B.br(H);
    B.setBlock(H);
    B.condBr(CmpOp::Lt, I, N, Body, Exit);
    B.setBlock(Body);
    B.binInto(Sum, BinOp::Add, Sum, I);
    B.binInto(I, BinOp::Add, I, One);
    B.br(H);
    B.setBlock(Exit);
    B.ncallVoid("sink", {Sum});
    B.ret();
    B.endFunction();
    M->finalize();
    return M;
  };
  auto M1 = Build(100);
  auto M2 = Build(1000);
  SlicingProfiler P1 = profileRun(*M1);
  SlicingProfiler P2 = profileRun(*M2);
  EXPECT_EQ(P1.graph().numNodes(), P2.graph().numNodes());
  EXPECT_EQ(P1.graph().numEdges(), P2.graph().numEdges());
  EXPECT_GT(P2.graph().totalFreq(), P1.graph().totalFreq());
}

} // namespace
