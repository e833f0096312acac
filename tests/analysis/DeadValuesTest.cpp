//===- tests/analysis/DeadValuesTest.cpp - Table 1(c) metrics --------------===//

#include "../TestUtil.h"

#include "analysis/DeadValues.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

TEST(DeadValuesTest, StoreNeverReadIsDead) {
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  A->addField("g", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C1 = B.iconst(1);
  Reg C2 = B.iconst(2);
  Reg DeadV = B.add(C1, C2);
  B.storeField(O, A->getId(), "f", DeadV); // Never read: dead sink.
  Instruction *DeadStore = B.block()->insts().back().get();
  Reg LiveV = B.mul(C1, C2);
  B.storeField(O, A->getId(), "g", LiveV);
  Reg L = B.loadField(O, A->getId(), "g");
  B.ncallVoid("sink", {L});
  B.ret();
  B.endFunction();
  M.finalize();

  RunResult R;
  SlicingProfiler P = profileRun(M, {}, &R);
  DeadValueAnalysis DV =
      computeDeadValues(FrozenGraph(P.graph()), R.ExecutedInstrs);

  NodeId NDeadStore = soleNodeFor(P.graph(), DeadStore->getId());
  ASSERT_NE(NDeadStore, kNoNode);
  EXPECT_TRUE(DV.Dead[NDeadStore]);
  // The add that feeds only the dead store is dead too (it is in D*)...
  NodeId NAdd = soleNodeFor(P.graph(), 3);
  EXPECT_TRUE(DV.Dead[NAdd]);
  // ...but the shared constants also feed the live mul, so they are live.
  NodeId NC1 = soleNodeFor(P.graph(), 1);
  EXPECT_FALSE(DV.Dead[NC1]);
  EXPECT_GT(DV.Metrics.ipd(), 0.0);
  EXPECT_GT(DV.Metrics.nld(), 0.0);
  EXPECT_LT(DV.Metrics.ipd(), 1.0);
}

TEST(DeadValuesTest, PredicateOnlyValues) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg C1 = B.iconst(1);
  Reg C2 = B.iconst(2);
  Reg Cond = B.add(C1, C2); // Used only in the predicate.
  Instruction *CondAdd = B.block()->insts().back().get();
  Reg Out = B.mul(C2, C2); // Reaches the native sink.
  Instruction *OutMul = B.block()->insts().back().get();
  BasicBlock *T = B.newBlock();
  BasicBlock *E = B.newBlock();
  B.condBr(CmpOp::Gt, Cond, C2, T, E);
  B.setBlock(T);
  B.br(E);
  B.setBlock(E);
  B.ncallVoid("sink", {Out});
  B.ret();
  B.endFunction();
  M.finalize();

  RunResult R;
  SlicingProfiler P = profileRun(M, {}, &R);
  DeadValueAnalysis DV =
      computeDeadValues(FrozenGraph(P.graph()), R.ExecutedInstrs);

  NodeId NCond = soleNodeFor(P.graph(), CondAdd->getId());
  NodeId NOut = soleNodeFor(P.graph(), OutMul->getId());
  EXPECT_TRUE(DV.PredicateOnly[NCond]);
  EXPECT_FALSE(DV.Dead[NCond]);
  EXPECT_FALSE(DV.PredicateOnly[NOut]);
  EXPECT_FALSE(DV.Dead[NOut]);
  EXPECT_GT(DV.Metrics.ipp(), 0.0);
}

TEST(DeadValuesTest, ValueFeedingBothPredicateAndDeadSinkIsNotPredOnly) {
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C1 = B.iconst(1);
  Reg V = B.add(C1, C1); // Feeds the predicate AND a never-read store.
  Instruction *VAdd = B.block()->insts().back().get();
  B.storeField(O, A->getId(), "f", V);
  BasicBlock *T = B.newBlock();
  BasicBlock *E = B.newBlock();
  B.condBr(CmpOp::Gt, V, C1, T, E);
  B.setBlock(T);
  B.br(E);
  B.setBlock(E);
  B.ret();
  B.endFunction();
  M.finalize();

  RunResult R;
  SlicingProfiler P = profileRun(M, {}, &R);
  DeadValueAnalysis DV =
      computeDeadValues(FrozenGraph(P.graph()), R.ExecutedInstrs);
  NodeId NV = soleNodeFor(P.graph(), VAdd->getId());
  EXPECT_FALSE(DV.Dead[NV]);          // It does reach a consumer.
  EXPECT_FALSE(DV.PredicateOnly[NV]); // But not *only* predicates.
}

TEST(DeadValuesTest, WhollyDeadProgramApproachesFullIPD) {
  // Every produced value is stored and never read; nothing is consumed.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C = B.iconst(7);
  Reg V = B.mul(C, C);
  B.storeField(O, A->getId(), "f", V);
  B.ret();
  B.endFunction();
  M.finalize();

  RunResult R;
  SlicingProfiler P = profileRun(M, {}, &R);
  DeadValueAnalysis DV =
      computeDeadValues(FrozenGraph(P.graph()), R.ExecutedInstrs);
  EXPECT_EQ(DV.Metrics.DeadNodes, DV.Metrics.TotalNodes);
  EXPECT_DOUBLE_EQ(DV.Metrics.nld(), 1.0);
  // IPD counts graph-covered instances over all executed instances (the
  // void ret has no node), so it is high but below 1.
  EXPECT_GT(DV.Metrics.ipd(), 0.5);
}

TEST(DeadValuesTest, EmptyGraphYieldsZeroMetrics) {
  FrozenGraph G;
  DeadValueAnalysis DV = computeDeadValues(G, 0);
  EXPECT_DOUBLE_EQ(DV.Metrics.ipd(), 0.0);
  EXPECT_DOUBLE_EQ(DV.Metrics.ipp(), 0.0);
  EXPECT_DOUBLE_EQ(DV.Metrics.nld(), 0.0);
}

} // namespace
