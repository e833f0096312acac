//===- tests/analysis/ExtensionsTest.cpp - Multi-hop & cache analyses ------===//
//
// Tests for the paper's proposed extensions (Sections 3.2 and 6): k-hop
// relative cost/benefit and the cache-effectiveness redefinition.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "analysis/CacheCost.h"
#include "analysis/MultiHop.h"
#include "ir/IRBuilder.h"
#include "support/OutStream.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

/// x = <5 ops>; a.f = x; y = a.f; z = y + 1; b.g = z; w = b.g; sink(w)
struct TwoHopProgram {
  std::unique_ptr<Module> M;
  InstrId StoreG = kNoInstr;
  InstrId LoadG = kNoInstr;
  uint64_t TagB = 0;
  FieldSlot SlotG = 0;
};

TwoHopProgram buildTwoHop(SlicingProfiler &P) {
  TwoHopProgram Out;
  Out.M = std::make_unique<Module>();
  Module &M = *Out.M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  ClassDecl *Bc = M.addClass("Bc");
  Bc->addField("g", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg OA = B.alloc(A->getId());
  Reg OB = B.alloc(Bc->getId());
  // First hop: five instructions of stack work into a.f.
  Reg C1 = B.iconst(3);
  Reg C2 = B.iconst(4);
  Reg T1 = B.mul(C1, C2);
  Reg T2 = B.add(T1, C1);
  Reg X = B.mul(T2, T2);
  B.storeField(OA, A->getId(), "f", X);
  // Second hop: a.f -> +1 -> b.g.
  Reg Y = B.loadField(OA, A->getId(), "f");
  Reg One = B.iconst(1);
  Reg Z = B.add(Y, One);
  B.storeField(OB, Bc->getId(), "g", Z);
  Instruction *StoreG = B.block()->insts().back().get();
  Reg W = B.loadField(OB, Bc->getId(), "g");
  Instruction *LoadG = B.block()->insts().back().get();
  B.ncallVoid("sink", {W});
  B.ret();
  B.endFunction();
  M.finalize();

  RunResult R = runModule(M, P);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  Out.StoreG = StoreG->getId();
  Out.LoadG = LoadG->getId();
  bool OK = M.resolveField(Bc->getId(), "g", Out.SlotG);
  EXPECT_TRUE(OK);
  NodeId NStore = soleNodeFor(P.graph(), Out.StoreG);
  Out.TagB = P.graph().node(NStore).EffectLoc.Tag;
  return Out;
}

TEST(MultiHopTest, OneHopEqualsDefinition5and6) {
  SlicingProfiler P;
  TwoHopProgram Prog = buildTwoHop(P);
  FrozenGraph G(P.graph());
  CostModel CM(G);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    EXPECT_EQ(multiHopCost(G, N, 1), CM.hrac(N));
    EXPECT_EQ(multiHopBenefit(G, N, 1).Benefit, CM.hrab(N).Benefit);
  }
}

TEST(MultiHopTest, SecondHopIncludesUpstreamWork) {
  SlicingProfiler P;
  TwoHopProgram Prog = buildTwoHop(P);
  FrozenGraph G(P.graph());
  NodeId NStore = soleNodeFor(G, Prog.StoreG);
  ASSERT_NE(NStore, kNoNode);
  // 1-hop: store + add + one = 3.
  EXPECT_EQ(multiHopCost(G, NStore, 1), 3u);
  // 2-hop: + load a.f + store a.f + 5 first-hop instructions = 10.
  EXPECT_EQ(multiHopCost(G, NStore, 2), 10u);
  // 3 hops: nothing further to cross.
  EXPECT_EQ(multiHopCost(G, NStore, 3), multiHopCost(G, NStore, 2));
}

TEST(MultiHopTest, ForwardHopsReachTheConsumer) {
  SlicingProfiler P;
  TwoHopProgram Prog = buildTwoHop(P);
  FrozenGraph G(P.graph());
  // From the first hop's store (a.f), one hop sees nothing past the
  // write; the reader side: a.f's load reaches b.g's store at hop 1 but
  // the final sink only at hop 2.
  CostModel CM(G);
  NodeId NLoadG = soleNodeFor(G, Prog.LoadG);
  ASSERT_NE(NLoadG, kNoNode);
  EXPECT_TRUE(CM.hrab(NLoadG).ReachesNative);

  // The *first* hop's load (of a.f) does not reach the native within one
  // hop, but does within two.
  uint32_t LocG = G.locIndexOf(HeapLoc{Prog.TagB, Prog.SlotG});
  ASSERT_NE(LocG, FrozenGraph::npos);
  LocCostBenefit OneHop = multiHopLocCostBenefit(G, LocG, 1);
  EXPECT_TRUE(OneHop.ReachesNative); // b.g's reader reaches sink directly.

  // Find a.f's location through the graph: it's the other non-static tag.
  for (uint64_t Tag : CostModel(G).allTags()) {
    if (Tag == Prog.TagB || DepGraph::isStaticTag(Tag))
      continue;
    for (uint32_t Loc : CM.fieldsOf(Tag)) {
      LocCostBenefit H1 = multiHopLocCostBenefit(G, Loc, 1);
      LocCostBenefit H2 = multiHopLocCostBenefit(G, Loc, 2);
      EXPECT_FALSE(H1.ReachesNative);
      EXPECT_TRUE(H2.ReachesNative);
      EXPECT_GE(H2.Rab, H1.Rab);
    }
  }
}

TEST(MultiHopTest, MonotoneInHops) {
  // On a generated workload: k-hop costs/benefits never decrease with k.
  SlicingProfiler P;
  TwoHopProgram Prog = buildTwoHop(P);
  FrozenGraph G(P.graph());
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    uint64_t Prev = 0;
    for (unsigned K = 1; K <= 4; ++K) {
      uint64_t C = multiHopCost(G, N, K);
      EXPECT_GE(C, Prev);
      Prev = C;
    }
  }
}

//===----------------------------------------------------------------------===
// Cache effectiveness.
//===----------------------------------------------------------------------===

/// Two memo tables of \p Entries expensive values: one is read back many
/// times (a good cache), the other exactly once per entry (pointless).
struct CacheProgram {
  std::unique_ptr<Module> M;
  AllocSiteId GoodSite = kNoAllocSite;
  AllocSiteId BadSite = kNoAllocSite;
};

CacheProgram buildCaches(int64_t Entries = 32) {
  CacheProgram Out;
  Out.M = std::make_unique<Module>();
  Module &M = *Out.M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg N = B.iconst(Entries);
  Reg Good = B.allocArray(TypeKind::Int, N);
  Instruction *GoodAlloc = B.block()->insts().back().get();
  Reg Bad = B.allocArray(TypeKind::Int, N);
  Instruction *BadAlloc = B.block()->insts().back().get();
  Reg I = B.iconst(0);
  Reg One = B.iconst(1);
  Reg C7 = B.iconst(7);
  Reg Acc = B.iconst(0);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  // Expensive value, cached in both tables.
  Reg V1 = B.mul(I, C7);
  Reg V2 = B.mul(V1, V1);
  Reg V3 = B.add(V2, I);
  B.storeElem(Good, I, V3);
  B.storeElem(Bad, I, V3);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  // The good cache is consulted 8x per entry; the bad one once.
  Reg R = B.iconst(0);
  Reg Rounds = B.iconst(8);
  BasicBlock *RH = B.newBlock();
  BasicBlock *RB = B.newBlock();
  BasicBlock *RX = B.newBlock();
  B.br(RH);
  B.setBlock(RH);
  B.condBr(CmpOp::Lt, R, Rounds, RB, RX);
  B.setBlock(RB);
  Reg J = B.iconst(0);
  BasicBlock *JH = B.newBlock();
  BasicBlock *JB = B.newBlock();
  BasicBlock *JX = B.newBlock();
  B.br(JH);
  B.setBlock(JH);
  B.condBr(CmpOp::Lt, J, N, JB, JX);
  B.setBlock(JB);
  Reg GV = B.loadElem(Good, J);
  B.binInto(Acc, BinOp::Add, Acc, GV);
  B.binInto(J, BinOp::Add, J, One);
  B.br(JH);
  B.setBlock(JX);
  B.binInto(R, BinOp::Add, R, One);
  B.br(RH);
  B.setBlock(RX);
  Reg K = B.iconst(0);
  BasicBlock *KH = B.newBlock();
  BasicBlock *KB = B.newBlock();
  BasicBlock *KX = B.newBlock();
  B.br(KH);
  B.setBlock(KH);
  B.condBr(CmpOp::Lt, K, N, KB, KX);
  B.setBlock(KB);
  Reg BV = B.loadElem(Bad, K);
  B.binInto(Acc, BinOp::Add, Acc, BV);
  B.binInto(K, BinOp::Add, K, One);
  B.br(KH);
  B.setBlock(KX);
  B.ncallVoid("sink", {Acc});
  B.ret();
  B.endFunction();
  M.finalize();
  Out.GoodSite = cast<AllocArrayInst>(GoodAlloc)->Site;
  Out.BadSite = cast<AllocArrayInst>(BadAlloc)->Site;
  return Out;
}

TEST(CacheCostTest, IneffectiveCacheRanksWorst) {
  CacheProgram Prog = buildCaches();
  SlicingProfiler P = profileRun(*Prog.M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  std::vector<CacheScore> Rows = rankCacheEffectiveness(CM, *Prog.M);
  ASSERT_EQ(Rows.size(), 2u);
  // Least effective first: the once-read table.
  EXPECT_EQ(Rows[0].Site, Prog.BadSite);
  EXPECT_EQ(Rows[1].Site, Prog.GoodSite);
  // The once-read cache saves nothing (reads == writes).
  EXPECT_DOUBLE_EQ(Rows[0].SavedWork, 0.0);
  EXPECT_LT(Rows[0].Effectiveness, 1.0);
  // The reused cache saves 7 recomputations per entry.
  EXPECT_GT(Rows[1].SavedWork, 0.0);
  EXPECT_GT(Rows[1].Effectiveness, 1.0);
  StringOutStream OS;
  printCacheScores(Rows, OS);
  EXPECT_NE(OS.str().find("new int[]"), std::string::npos);
}

TEST(CacheCostTest, MinWritesFiltersTinyStructures) {
  // A table needs 4 stores before it is scored as a cache. Its allocation
  // writes the length, so N entries are N + 1 stores.
  for (int64_t Entries : {2, 3}) {
    SCOPED_TRACE(Entries);
    CacheProgram Prog = buildCaches(Entries);
    SlicingProfiler P = profileRun(*Prog.M);
    const FrozenGraph Sealed(P.graph());
    CostModel CM(Sealed);
    std::vector<CacheScore> Rows = rankCacheEffectiveness(CM, *Prog.M);
    EXPECT_EQ(Rows.size(), Entries < 3 ? 0u : 2u);
    for (const CacheScore &S : Rows)
      EXPECT_EQ(S.Writes, uint64_t(Entries) + 1);
  }
}

} // namespace
