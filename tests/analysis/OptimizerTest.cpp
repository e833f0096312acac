//===- tests/analysis/OptimizerTest.cpp - Profile-guided bloat removal -----===//

#include "analysis/Optimizer.h"
#include "ir/Rewrite.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

/// Profiles M, optimizes, validates observability, returns the result.
OptimizeResult optimizeChecked(const Module &M) {
  ProfiledRun P = profiledRun(M);
  EXPECT_EQ(P.Run.Status, RunStatus::Finished);
  const FrozenGraph Sealed(P.Prof->graph());
  DeadValueAnalysis DV = computeDeadValues(Sealed, P.Run.ExecutedInstrs);
  OptimizeResult R = removeProfiledDeadCode(M, Sealed, DV);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*R.M, Errors));
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  return R;
}

TEST(CloneModuleTest, IdentityCloneBehavesIdentically) {
  Workload W = buildWorkload("eclipse", 48);
  std::unique_ptr<Module> C = ModuleRewriter(*W.M).apply();
  TimedRun R1 = baselineRun(*W.M);
  TimedRun R2 = baselineRun(*C);
  EXPECT_EQ(R1.Run.ExecutedInstrs, R2.Run.ExecutedInstrs);
  EXPECT_EQ(R1.Run.SinkHash, R2.Run.SinkHash);
  EXPECT_EQ(C->getNumInstrs(), W.M->getNumInstrs());
}

TEST(OptimizerTest, RemovesChartEntryConstruction) {
  // The intro example: entries boxed into a list that is only size-checked
  // — the optimizer should delete the boxing and the value computation.
  Workload W = buildWorkload("chart", 100);
  TimedRun Before = baselineRun(*W.M);
  OptimizeResult R = optimizeChecked(*W.M);
  EXPECT_GT(R.Stats.RemovedStores, 0u);
  EXPECT_GT(R.Stats.RemovedPure, 0u);
  TimedRun After = baselineRun(*R.M);
  ASSERT_EQ(After.Run.Status, RunStatus::Finished);
  // Observable output preserved, work reduced.
  EXPECT_EQ(After.Run.SinkHash, Before.Run.SinkHash);
  EXPECT_LT(After.Run.ExecutedInstrs, Before.Run.ExecutedInstrs);
  // The chart pattern is a sizable fraction of this workload (the entry
  // spine itself stays: reference stores are outside thin value flow).
  double Reduction = 1.0 - double(After.Run.ExecutedInstrs) /
                               double(Before.Run.ExecutedInstrs);
  EXPECT_GT(Reduction, 0.05);
}

TEST(OptimizerTest, PreservesFullyLiveProgram) {
  // Every value reaches the sink: nothing to remove.
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg A = B.iconst(5);
  Reg C = B.iconst(7);
  Reg S = B.mul(A, C);
  B.ncallVoid("sink", {S});
  B.ret(S);
  B.endFunction();
  M.finalize();
  OptimizeResult R = optimizeChecked(M);
  EXPECT_EQ(R.Stats.removedTotal(), 0u);
  EXPECT_EQ(R.M->getNumInstrs(), M.getNumInstrs());
}

TEST(OptimizerTest, DeadChainCascades) {
  // v -> box.f, box never read: store, field computation, and the alloc
  // itself should all disappear.
  Module M;
  ClassDecl *Box = M.addClass("Box");
  Box->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg Keep = B.iconst(11);
  Reg O = B.alloc(Box->getId());
  Reg T1 = B.mul(Keep, Keep);
  Reg T2 = B.add(T1, Keep);
  B.storeField(O, Box->getId(), "f", T2);
  B.ncallVoid("sink", {Keep});
  B.ret();
  B.endFunction();
  M.finalize();
  OptimizeResult R = optimizeChecked(M);
  EXPECT_EQ(R.Stats.RemovedStores, 1u);
  // mul, add, alloc all cascade away.
  EXPECT_EQ(R.Stats.RemovedPure, 3u);
  TimedRun After = baselineRun(*R.M);
  EXPECT_EQ(After.Run.Status, RunStatus::Finished);
  // Remaining: iconst, ncall, ret.
  EXPECT_EQ(After.Run.ExecutedInstrs, 3u);
}

TEST(OptimizerTest, KeepsPredicateFeeders) {
  // A value consumed only by a branch is NOT dead (control decisions are
  // consumers); the optimizer must not touch it.
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg A = B.iconst(3);
  Reg C = B.iconst(9);
  Reg V = B.mul(A, C);
  BasicBlock *T = B.newBlock();
  BasicBlock *E = B.newBlock();
  B.condBr(CmpOp::Gt, V, A, T, E);
  B.setBlock(T);
  Reg One = B.iconst(1);
  B.ncallVoid("sink", {One});
  B.br(E);
  B.setBlock(E);
  B.ret();
  B.endFunction();
  M.finalize();
  TimedRun Before = baselineRun(M);
  OptimizeResult R = optimizeChecked(M);
  TimedRun After = baselineRun(*R.M);
  EXPECT_EQ(After.Run.SinkHash, Before.Run.SinkHash);
  EXPECT_EQ(After.Run.ExecutedInstrs, Before.Run.ExecutedInstrs);
}

class OptimizerPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizerPropertyTest, ObservableBehaviourPreserved) {
  RandomProgramOptions Opts;
  Opts.Seed = GetParam();
  Opts.OpsPerFunction = 28;
  std::unique_ptr<Module> M = generateRandomProgram(Opts);
  TimedRun Before = baselineRun(*M);
  ASSERT_EQ(Before.Run.Status, RunStatus::Finished);
  OptimizeResult R = optimizeChecked(*M);
  TimedRun After = baselineRun(*R.M);
  ASSERT_EQ(After.Run.Status, RunStatus::Finished);
  EXPECT_EQ(After.Run.SinkHash, Before.Run.SinkHash);
  EXPECT_EQ(After.Run.ReturnValue.asInt(), Before.Run.ReturnValue.asInt());
  EXPECT_LE(After.Run.ExecutedInstrs, Before.Run.ExecutedInstrs);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OptimizerPropertyTest,
                         ::testing::Range(uint64_t(1), uint64_t(21)));

TEST(OptimizerTest, WorksAcrossAllWorkloads) {
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 48);
    TimedRun Before = baselineRun(*W.M);
    OptimizeResult R = optimizeChecked(*W.M);
    TimedRun After = baselineRun(*R.M);
    ASSERT_EQ(After.Run.Status, RunStatus::Finished) << Name;
    EXPECT_EQ(After.Run.SinkHash, Before.Run.SinkHash) << Name;
    EXPECT_LE(After.Run.ExecutedInstrs, Before.Run.ExecutedInstrs) << Name;
  }
}

} // namespace
