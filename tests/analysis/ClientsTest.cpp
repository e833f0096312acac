//===- tests/analysis/ClientsTest.cpp - Section 3.2 client analyses --------===//

#include "../TestUtil.h"

#include "analysis/Clients.h"
#include "analysis/Report.h"
#include "ir/IRBuilder.h"
#include "support/OutStream.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

TEST(OverwriteClientTest, RanksRewrittenBeforeReadLocations) {
  // derby pattern: field "hot" written 50x, read once; "cold" written once.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("hot", Type::makeInt());
  A->addField("cold", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Instruction *Alloc = B.block()->insts().back().get();
  Reg I = B.iconst(0);
  Reg N = B.iconst(50);
  Reg One = B.iconst(1);
  B.storeField(O, A->getId(), "cold", One);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  B.storeField(O, A->getId(), "hot", I);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  Reg V = B.loadField(O, A->getId(), "hot");
  Reg W = B.loadField(O, A->getId(), "cold");
  Reg S = B.add(V, W);
  B.ncallVoid("sink", {S});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  std::vector<OverwriteRow> Rows = rankOverwrites(P, M);
  ASSERT_FALSE(Rows.empty());
  // "hot" tops the ranking: 50 writes, 1 read, 49 overwrites.
  EXPECT_EQ(Rows[0].Site, cast<AllocInst>(Alloc)->Site);
  EXPECT_EQ(Rows[0].Writes, 50u);
  EXPECT_EQ(Rows[0].Reads, 1u);
  EXPECT_EQ(Rows[0].Overwrites, 49u);
  EXPECT_NEAR(Rows[0].WasteRatio, 49.0 / 50.0, 1e-9);
  EXPECT_NE(Rows[0].Description.find("hot"), std::string::npos);

  StringOutStream OS;
  printOverwrites(Rows, OS);
  EXPECT_NE(OS.str().find("hot"), std::string::npos);
}

TEST(OverwriteClientTest, StaticsAreRankedToo) {
  Module M;
  GlobalId G = M.addGlobal("cache", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg C1 = B.iconst(1);
  B.storeStatic(G, C1);
  B.storeStatic(G, C1);
  B.storeStatic(G, C1);
  Reg V = B.loadStatic(G);
  B.ncallVoid("sink", {V});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  std::vector<OverwriteRow> Rows = rankOverwrites(P, M);
  ASSERT_FALSE(Rows.empty());
  EXPECT_EQ(Rows[0].Global, G);
  EXPECT_EQ(Rows[0].Overwrites, 2u);
  EXPECT_NE(Rows[0].Description.find("cache"), std::string::npos);
}

TEST(MethodCostClientTest, ExpensiveReturnRanksFirst) {
  Module M;
  IRBuilder B(M);
  // cheap(): returns a constant. pricey(): loops 100x for its result.
  B.beginFunction("cheap", 0);
  Reg C = B.iconst(1);
  B.ret(C);
  B.endFunction();

  B.beginFunction("pricey", 0);
  Reg Acc = B.iconst(0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(100);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  B.binInto(Acc, BinOp::Add, Acc, I);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ret(Acc);
  B.endFunction();

  B.beginFunction("main", 0);
  Reg A = B.call("cheap", {});
  Reg Bv = B.call("pricey", {});
  Reg S = B.add(A, Bv);
  B.ncallVoid("sink", {S});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  std::vector<MethodCostRow> Rows = computeMethodCosts(CM, M);
  ASSERT_GE(Rows.size(), 2u);
  EXPECT_EQ(Rows[0].Name, "pricey");
  EXPECT_GT(Rows[0].ReturnCost, 100.0);
  // cheap's return costs exactly ret + const = 2.
  for (const MethodCostRow &R : Rows) {
    if (R.Name == "cheap") {
      EXPECT_DOUBLE_EQ(R.ReturnCost, 2.0);
    }
  }
}

TEST(PredicateConstancyClientTest, FindsAlwaysTrueGuards) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(60);
  Reg One = B.iconst(1);
  Reg Zero = B.iconst(0);
  Reg Acc = B.iconst(0);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  // Always-true guard: i >= 0 for a loop counter.
  BasicBlock *Guarded = B.newBlock();
  BasicBlock *Cont = B.newBlock();
  B.condBr(CmpOp::Ge, I, Zero, Guarded, Cont);
  Instruction *Guard = B.block()->terminator();
  B.setBlock(Guarded);
  B.binInto(Acc, BinOp::Add, Acc, I);
  B.br(Cont);
  B.setBlock(Cont);
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
  std::vector<ConstantPredicateRow> Rows = findConstantPredicates(P, CM, M);
  ASSERT_FALSE(Rows.empty());
  bool FoundGuard = false;
  for (const ConstantPredicateRow &R : Rows) {
    if (R.Instr == Guard->getId()) {
      FoundGuard = true;
      EXPECT_TRUE(R.AlwaysTrue);
      EXPECT_EQ(R.Executions, 60u);
      EXPECT_NE(R.Text.find(">="), std::string::npos);
    }
    // The loop header predicate took both directions: never reported.
    EXPECT_TRUE(R.AlwaysTrue || R.Executions > 0);
  }
  EXPECT_TRUE(FoundGuard);
  // The loop-exit condition must NOT be reported (it went both ways).
  for (const ConstantPredicateRow &R : Rows)
    EXPECT_NE(R.Executions, 61u);
}

TEST(PredicateConstancyClientTest, MinCountFiltersOneShots) {
  // A constant predicate counts from its second execution on: the one-shot
  // guard in the entry drops, the same guard run twice in a loop stays.
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg A = B.iconst(1);
  Reg Bv = B.iconst(2);
  BasicBlock *T = B.newBlock();
  BasicBlock *E = B.newBlock();
  B.condBr(CmpOp::Lt, A, Bv, T, E);
  B.setBlock(T);
  B.br(E);
  B.setBlock(E);
  Reg I = B.iconst(0);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Taken = B.newBlock();
  BasicBlock *Latch = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, Bv, Body, Exit);
  B.setBlock(Body);
  B.condBr(CmpOp::Lt, A, Bv, Taken, Latch);
  Instruction *Twice = B.block()->insts().back().get();
  B.setBlock(Taken);
  B.br(Latch);
  B.setBlock(Latch);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  std::vector<ConstantPredicateRow> Rows = findConstantPredicates(P, CM, M);
  ASSERT_EQ(Rows.size(), 1u);
  EXPECT_EQ(Rows[0].Instr, Twice->getId());
  EXPECT_EQ(Rows[0].Executions, 2u);
  EXPECT_TRUE(Rows[0].AlwaysTrue);
}

} // namespace
