//===- tests/analysis/CostModelTest.cpp - Definitions 3-7 ------------------===//

#include "../TestUtil.h"

#include "analysis/CostModel.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

TEST(CostModelTest, Figure1NoDoubleCounting) {
  // Figure 1: a = 0; c = f(a); d = c * 3; b = c + d; where f(e) = e >> 2.
  // Taint-style accumulation counts c's cost twice (through c and d); the
  // dependence-graph cost counts every contributing instruction once.
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

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  InstrId AddId = 7;
  NodeId NAdd = soleNodeFor(P.graph(), AddId);
  ASSERT_NE(NAdd, kNoNode);
  // Contributors: iconst0, iconst2, shr, ret, iconst3, mul, add = 7 nodes,
  // freq 1 each. (Taint-style double counting would give 11.)
  EXPECT_EQ(CM.abstractCost(NAdd), 7u);
}

TEST(CostModelTest, AbstractCostAccumulatesLoopFrequencies) {
  // acc = 0; for (i = 0; i < 50; i++) acc = acc + i; sink(acc).
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg Acc = B.iconst(0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(50);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  B.binInto(Acc, BinOp::Add, Acc, I);
  Instruction *AccAdd = B.block()->insts().back().get();
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ncallVoid("sink", {Acc});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  NodeId NAcc = soleNodeFor(P.graph(), AccAdd->getId());
  ASSERT_NE(NAcc, kNoNode);
  // acc-add(50) + i-add(50) + iconst acc0/i0/one (3x1) = 103.
  // (iconst 50 feeds only the predicate, not acc.)
  EXPECT_EQ(CM.abstractCost(NAcc), 103u);
}

TEST(CostModelTest, HracStopsAtHeapReads) {
  // x = o.f; y = x + 1; p.g = y;  => HRAC(store) = store + add = 2 (the
  // load and everything before it are excluded: Definition 5).
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  A->addField("g", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg Pr = B.alloc(A->getId());
  Reg Seed = B.iconst(5);
  B.storeField(O, A->getId(), "f", Seed);
  Reg X = B.loadField(O, A->getId(), "f");
  Reg OneR = B.iconst(1);
  Reg Y = B.add(X, OneR);
  B.storeField(Pr, A->getId(), "g", Y);
  Instruction *StoreG = B.block()->insts().back().get();
  Reg Z = B.loadField(Pr, A->getId(), "g");
  B.ncallVoid("sink", {Z});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  NodeId NStore = soleNodeFor(P.graph(), StoreG->getId());
  ASSERT_NE(NStore, kNoNode);
  // store(1) + add(1) + iconst1(1) = 3; the load of o.f is not entered.
  EXPECT_EQ(CM.hrac(NStore), 3u);
  // Whereas the full abstract cost also covers the first hop.
  EXPECT_GT(CM.abstractCost(NStore), 3u);
}

TEST(CostModelTest, HrabStopsAtHeapWrites) {
  // x = o.f; y = x + 1; p.g = y; HRAB(load o.f) = load + add = 2; the store
  // and anything after it are excluded (Definition 6).
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  A->addField("g", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg Pr = B.alloc(A->getId());
  Reg Seed = B.iconst(5);
  B.storeField(O, A->getId(), "f", Seed);
  Reg X = B.loadField(O, A->getId(), "f");
  Instruction *LoadF = B.block()->insts().back().get();
  Reg OneR = B.iconst(1);
  Reg Y = B.add(X, OneR);
  B.storeField(Pr, A->getId(), "g", Y);
  Reg Z = B.loadField(Pr, A->getId(), "g");
  B.ncallVoid("sink", {Z});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  NodeId NLoad = soleNodeFor(P.graph(), LoadF->getId());
  ASSERT_NE(NLoad, kNoNode);
  const BenefitInfo &BI = CM.hrab(NLoad);
  // load(1) + add(1) = 2; store not entered.
  EXPECT_EQ(BI.Benefit, 2u);
  EXPECT_FALSE(BI.ReachesPredicate);
  EXPECT_FALSE(BI.ReachesNative);
}

TEST(CostModelTest, BenefitFlagsReportConsumers) {
  // u = o.f used in a predicate; v = o.g sunk to a native.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  A->addField("g", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C1 = B.iconst(1);
  B.storeField(O, A->getId(), "f", C1);
  B.storeField(O, A->getId(), "g", C1);
  Reg U = B.loadField(O, A->getId(), "f");
  Instruction *LoadF = B.block()->insts().back().get();
  Reg V = B.loadField(O, A->getId(), "g");
  Instruction *LoadG = B.block()->insts().back().get();
  BasicBlock *T = B.newBlock();
  BasicBlock *E = B.newBlock();
  B.condBr(CmpOp::Gt, U, C1, T, E);
  B.setBlock(T);
  B.br(E);
  B.setBlock(E);
  B.ncallVoid("sink", {V});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  const BenefitInfo &BF = CM.hrab(soleNodeFor(P.graph(), LoadF->getId()));
  EXPECT_TRUE(BF.ReachesPredicate);
  EXPECT_FALSE(BF.ReachesNative);
  const BenefitInfo &BG = CM.hrab(soleNodeFor(P.graph(), LoadG->getId()));
  EXPECT_FALSE(BG.ReachesPredicate);
  EXPECT_TRUE(BG.ReachesNative);
}

TEST(CostModelTest, LocCostBenefitAveragesOverNodes) {
  // Two different stores write o.f (one cheap, one expensive); RAC is the
  // average of their HRACs.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C1 = B.iconst(1);
  B.storeField(O, A->getId(), "f", C1); // HRAC = store+const = 2
  Reg C2 = B.iconst(2);
  Reg C3 = B.iconst(3);
  Reg S = B.add(C2, C3);
  Reg S2 = B.mul(S, C2);
  B.storeField(O, A->getId(), "f", S2); // HRAC = store+mul+add+2consts = 5
  Reg L = B.loadField(O, A->getId(), "f");
  B.ncallVoid("sink", {L});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  FieldSlot Slot;
  ASSERT_TRUE(M.resolveField(A->getId(), "f", Slot));
  NodeId NAlloc = soleNodeFor(P.graph(), 0);
  uint64_t Tag = P.graph().node(NAlloc).EffectLoc.Tag;
  uint32_t I = CM.graph().locIndexOf(HeapLoc{Tag, Slot});
  ASSERT_NE(I, FrozenGraph::npos);
  LocCostBenefit CB = CM.locCostBenefitAt(I);
  EXPECT_EQ(CB.NumWriters, 2u);
  EXPECT_DOUBLE_EQ(CB.Rac, (2.0 + 5.0) / 2.0);
  EXPECT_EQ(CB.NumReaders, 1u);
}

TEST(CostModelTest, ObjectCostBenefitAggregatesOverTree) {
  // root.child = inner; inner.v = <expensive>; 1-RAC of root counts only
  // root's own fields; 2-RAC also counts inner.v.
  Module M;
  ClassDecl *Inner = M.addClass("Inner");
  Inner->addField("v", Type::makeInt());
  ClassDecl *Root = M.addClass("Root");
  Root->addField("child", Type::makeRef(Inner->getId()));
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg RInner = B.alloc(Inner->getId());
  Reg C1 = B.iconst(10);
  Reg C2 = B.iconst(20);
  Reg Sum = B.add(C1, C2);
  B.storeField(RInner, Inner->getId(), "v", Sum); // HRAC 4
  Reg RRoot = B.alloc(Root->getId());
  B.storeField(RRoot, Root->getId(), "child", RInner); // HRAC 2 (store+alloc)
  Reg L = B.loadField(RRoot, Root->getId(), "child");
  Reg V = B.loadField(L, Inner->getId(), "v");
  B.ncallVoid("sink", {V});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  NodeId RootAlloc = soleNodeFor(P.graph(), 5);
  uint64_t RootTag = P.graph().node(RootAlloc).EffectLoc.Tag;

  ObjectCostBenefit CB1 = CM.objectCostBenefit(RootTag, 1);
  ObjectCostBenefit CB2 = CM.objectCostBenefit(RootTag, 2);
  // Depth 1: only root.child (HRAC = store + alloc = 2).
  EXPECT_DOUBLE_EQ(CB1.NRac, 2.0);
  EXPECT_EQ(CB1.FieldsCounted, 1u);
  EXPECT_EQ(CB1.TreeObjects, 2u);
  // Depth 2: + inner.v (HRAC = store + add + 2 consts = 4).
  EXPECT_DOUBLE_EQ(CB2.NRac, 6.0);
  EXPECT_EQ(CB2.FieldsCounted, 2u);
}

TEST(CostModelTest, ReferenceCyclesAreCut) {
  // a.next = b; b.next = a; depth-10 aggregation terminates and counts
  // each field once.
  Module M;
  ClassDecl *N = M.addClass("N");
  N->addField("next", Type::makeRef(N->getId()));
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg RA = B.alloc(N->getId());
  Reg RB = B.alloc(N->getId());
  B.storeField(RA, N->getId(), "next", RB);
  B.storeField(RB, N->getId(), "next", RA);
  Reg L = B.loadField(RA, N->getId(), "next");
  B.ncallVoid("sink", {L});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  NodeId AAlloc = soleNodeFor(P.graph(), 0);
  uint64_t ATag = P.graph().node(AAlloc).EffectLoc.Tag;
  ObjectCostBenefit CB = CM.objectCostBenefit(ATag, 10);
  EXPECT_EQ(CB.TreeObjects, 2u);
  EXPECT_EQ(CB.FieldsCounted, 2u);
}

TEST(CostModelTest, HracOfPredicateDirectlyAfterLoadIsItsFrequency) {
  // Figure 3's observation: a predicate that depends directly on a heap
  // read has HRAC equal to just its own frequency.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("t", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C = B.iconst(100);
  B.storeField(O, A->getId(), "t", C);
  Reg L = B.loadField(O, A->getId(), "t");
  BasicBlock *T = B.newBlock();
  BasicBlock *E = B.newBlock();
  B.condBr(CmpOp::Gt, L, L, T, E);
  Instruction *Pred = B.block()->terminator();
  B.setBlock(T);
  B.br(E);
  B.setBlock(E);
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  NodeId NPred = soleNodeFor(P.graph(), Pred->getId());
  ASSERT_NE(NPred, kNoNode);
  EXPECT_EQ(CM.hrac(NPred), 1u);
}

TEST(CostModelTest, ClosureFrequenciesSaturateInsteadOfWrapping) {
  // A fuzzed program can pile near-2^64 executions onto one closure. A
  // wrapped accumulator would rank the hottest structure as nearly free;
  // saturation pins the cost at "at least UINT64_MAX".
  DepGraph G;
  NodeId A = G.getOrCreate(1, 0);
  NodeId B = G.getOrCreate(2, 0);
  G.addEdge(A, B);
  G.freq(A) = ~uint64_t(0);
  G.freq(B) = 12345;
  const FrozenGraph Sealed(G);
  CostModel CM(Sealed);
  // Wrapping would report 12344 here.
  EXPECT_EQ(CM.abstractCost(B), ~uint64_t(0));
  EXPECT_EQ(CM.abstractCost(A), ~uint64_t(0));
}

TEST(CostModelTest, LocCostsSaturateAcrossWriterSums) {
  DepGraph G;
  NodeId W1 = G.getOrCreate(1, 0);
  NodeId W2 = G.getOrCreate(2, 0);
  G.freq(W1) = uint64_t(1) << 63;
  G.freq(W2) = (uint64_t(1) << 63) + 9;
  HeapLoc L{42, 3};
  G.noteWriter(L, W1);
  G.noteWriter(L, W2);
  const FrozenGraph Sealed(G);
  CostModel CM(Sealed);
  uint32_t I = CM.graph().locIndexOf(L);
  ASSERT_NE(I, FrozenGraph::npos);
  LocCostBenefit CB = CM.locCostBenefitAt(I);
  EXPECT_EQ(CB.NumWriters, 2u);
  // The per-writer hrac sum wraps to 9 without saturation; the average
  // must instead sit at the ceiling.
  EXPECT_EQ(CB.Rac, double(~uint64_t(0)) / 2.0);
}

} // namespace
