//===- tests/analysis/CostModelTest.cpp - Definitions 3-7 ------------------===//

#include "../TestUtil.h"

#include "analysis/CostModel.h"
#include "ir/IRBuilder.h"
#include "support/RNG.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

/// Checks the chain-forest HRAB of every node of \p G against the plain
/// BFS reference: the benefit and both consumer flags. Forest queries run
/// in node order, so later ones reuse the forest built by the first.
void expectForestMatchesReference(const FrozenGraph &G,
                                  const std::string &Ctx) {
  CostModel Forest(G), Ref(G);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    BenefitInfo F = Forest.hrab(N);
    BenefitInfo R = Ref.hrabReference(N);
    ASSERT_EQ(F.Benefit, R.Benefit) << Ctx << " node " << N;
    ASSERT_EQ(F.ReachesPredicate, R.ReachesPredicate) << Ctx << " node " << N;
    ASSERT_EQ(F.ReachesNative, R.ReachesNative) << Ctx << " node " << N;
  }
}

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
  G.noteWriter(G.internLoc(L), W1);
  G.noteWriter(G.internLoc(L), W2);
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

TEST(CostModelTest, HrabForestMatchesReferenceOnAnalogues) {
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 48);
    ProfiledRun P = profiledRun(*W.M);
    expectForestMatchesReference(FrozenGraph(P.Prof->graph()), Name);
  }
}

TEST(CostModelTest, HrabForestMatchesReferenceOnComposed) {
  Workload W = buildComposedWorkload(40);
  ProfiledRun P = profiledRun(*W.M);
  const FrozenGraph G(P.Prof->graph());
  expectForestMatchesReference(G, "composed@40");
  // The forest enters fewer nodes than the BFS visits over the readers.
  CostModel CM(G);
  uint64_t RefVisits = 0;
  for (uint32_t I = 0; I != G.numLocs(); ++I)
    for (NodeId R : G.readersAt(I)) {
      CM.hrab(R);
      CM.hrabReference(R, &RefVisits);
    }
  EXPECT_LT(CM.hrabVisits(), RefVisits);
}

TEST(CostModelTest, HrabForestMatchesReferenceOnRandomPrograms) {
  // The programs `lud-gen --random 1..200` prints.
  for (uint64_t Seed = 1; Seed <= 200; ++Seed) {
    RandomProgramOptions Opts;
    Opts.Seed = Seed;
    std::unique_ptr<Module> M = generateRandomProgram(Opts);
    ProfiledRun P = profiledRun(*M);
    expectForestMatchesReference(FrozenGraph(P.Prof->graph()),
                                 "seed " + std::to_string(Seed));
  }
}

TEST(CostModelTest, HrabForestMatchesReferenceOnRandomGraphs) {
  // Shapes the profiler rarely makes: long out-degree-1 chains that many
  // readers enter at different depths, cycles made only of chain links,
  // cycles through a chain, heap writers inside chains, and frequencies
  // big enough that some trees saturate.
  for (uint64_t Seed = 1; Seed <= 60; ++Seed) {
    RNG R(Seed);
    DepGraph G;
    const unsigned N = 20 + unsigned(R.nextBelow(180));
    for (unsigned I = 0; I != N; ++I) {
      NodeId X = G.getOrCreate(I, 0);
      DepGraph::Node &Node = G.node(X);
      Node.WritesHeap = R.nextBelow(8) == 0;
      Node.Consumer = ConsumerKind(R.nextBelow(6) < 3 ? 0 : R.nextBelow(3));
      G.freq(X) = Seed % 3 == 0 && R.nextBelow(10) == 0
                      ? ~uint64_t(0) / (1 + R.nextBelow(4))
                      : 1 + R.nextBelow(100);
    }
    for (unsigned I = 0; I + 1 < N; ++I) {
      // Mostly a chain toward higher ids, with branches and back edges.
      if (R.nextBelow(4) != 0)
        G.addEdge(I, I + 1);
      if (R.nextBelow(6) == 0)
        G.addEdge(I, NodeId(R.nextBelow(N)));
    }
    if (N > 4)
      G.addEdge(N - 1, N - 4); // a cycle of links at the chain's end
    expectForestMatchesReference(FrozenGraph(G),
                                 "graph seed " + std::to_string(Seed));
  }
}

TEST(CostModelTest, HrabForestKeepsBfsForSaturatingTree) {
  // A chain whose frequency total saturates: a difference of saturated
  // prefix sums would not be exact, so the tree is walked node by node,
  // and every result still equals the reference (saturated where the
  // closure's true sum is).
  DepGraph G;
  const NodeId Len = 6;
  for (NodeId I = 0; I != Len; ++I) {
    NodeId X = G.getOrCreate(I, 0);
    G.freq(X) = (uint64_t(1) << 62) + I;
    if (I)
      G.addEdge(I - 1, I);
  }
  G.node(Len - 1).Consumer = ConsumerKind::Native;
  const FrozenGraph F(G);
  expectForestMatchesReference(F, "saturating chain");
  CostModel CM(F);
  EXPECT_EQ(CM.hrab(0).Benefit, ~uint64_t(0));
  EXPECT_TRUE(CM.hrab(0).ReachesNative);
  EXPECT_EQ(CM.hrab(Len - 2).Benefit, (uint64_t(1) << 63) + 9);
}

TEST(CostModelTest, HrabForestTakesSharedChainsOnce) {
  // Readers r0..r9 each feed node k of one chain of 100 nodes: the BFS
  // walks the chain's tail again from every reader; the forest enters
  // each reader and its chain node once.
  DepGraph G;
  const NodeId Chain = 100;
  for (NodeId I = 0; I != Chain; ++I) {
    G.getOrCreate(I, 0);
    if (I)
      G.addEdge(I - 1, I);
  }
  std::vector<NodeId> Readers;
  for (NodeId K = 0; K != 10; ++K) {
    NodeId R = G.getOrCreate(Chain + K, 0);
    G.addEdge(R, K * 10);
    G.addEdge(R, K * 10 + 5);
    Readers.push_back(R);
  }
  const FrozenGraph F(G);
  CostModel CM(F);
  uint64_t RefVisits = 0;
  for (NodeId R : Readers) {
    EXPECT_EQ(CM.hrab(R).Benefit, CM.hrabReference(R, &RefVisits).Benefit);
  }
  // Each reader: itself plus two chain entries.
  EXPECT_EQ(CM.hrabVisits(), 30u);
  EXPECT_EQ(RefVisits, 10u + (100 + 90 + 80 + 70 + 60 + 50 + 40 + 30 + 20 + 10));
}

} // namespace
