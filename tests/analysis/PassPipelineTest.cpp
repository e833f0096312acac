//===- tests/analysis/PassPipelineTest.cpp - Rewrite-pass pipeline ---------===//

#include "analysis/PassManager.h"

#include "analysis/Optimizer.h"
#include "ir/IRBuilder.h"
#include "ir/Obfuscate.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <deque>
#include <functional>
#include <gtest/gtest.h>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

RunResult engineRun(const Module &M, EngineKind E) {
  SessionConfig SC = SessionConfig::baseline();
  SC.Engine = E;
  ProfileSession S(SC);
  return S.run(M).Run;
}

opt::PipelineResult runPipeline(const Module &M,
                                std::vector<std::string> Passes = {}) {
  opt::PipelineOptions PO;
  PO.Engine = EngineKind::Interp;
  PO.Passes = std::move(Passes);
  opt::PassManager PM(std::move(PO));
  return PM.run(M);
}

const opt::PassStats *statsFor(const opt::PipelineResult &R,
                               const std::string &Pass) {
  for (const auto &[Name, S] : R.PerPass)
    if (Name == Pass)
      return &S;
  return nullptr;
}

/// Expects the rewritten module to reproduce the original's observables on
/// both engines — the contract every committed rewrite promises.
void expectPreserved(const Module &Orig, const opt::PipelineResult &R,
                     const std::string &Ctx) {
  if (!R.M)
    return;
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*R.M, Errors)) << Ctx;
  for (const std::string &E : Errors)
    ADD_FAILURE() << Ctx << ": " << E;
  for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
    RunResult A = engineRun(Orig, E);
    RunResult B = engineRun(*R.M, E);
    EXPECT_EQ(A.Status, B.Status) << Ctx;
    EXPECT_EQ(A.SinkHash, B.SinkHash) << Ctx;
    EXPECT_EQ(A.ReturnValue.asInt(), B.ReturnValue.asInt()) << Ctx;
  }
}

/// A lookup kernel in the exact shape map-to-array matches: an array built
/// once in the entry block, then an outer loop of linear lower-bound scans.
/// \p Sorted selects sorted (rewrite-safe) or shuffled (rewrite-unsafe)
/// contents.
std::unique_ptr<Module> buildScanKernel(bool Sorted) {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  Reg Sz = B.iconst(32);
  Reg A = B.allocArray(TypeKind::Int, Sz);
  Reg One = B.iconst(1);
  Reg N = B.iconst(64);
  Reg Mask = B.iconst(63);
  Reg Step = B.iconst(7);
  for (int J = 0; J != 32; ++J) {
    Reg Jr = B.iconst(J);
    Reg Vr = B.iconst(Sorted ? 2 * J : (11 * J) & 63);
    B.storeElem(A, Jr, Vr);
  }
  Reg I = B.iconst(0);
  BasicBlock *OH = B.newBlock(); // outer header
  BasicBlock *PRE = B.newBlock(); // scan preheader
  BasicBlock *SH = B.newBlock(); // scan header
  BasicBlock *SB = B.newBlock(); // probe
  BasicBlock *ST = B.newBlock(); // step
  BasicBlock *SX = B.newBlock(); // scan exit
  BasicBlock *OX = B.newBlock(); // outer exit
  B.br(OH);
  B.setBlock(OH);
  B.condBr(CmpOp::Lt, I, N, PRE, OX);
  B.setBlock(PRE);
  Reg T = B.mul(I, Step);
  Reg Key = B.bin(BinOp::And, T, Mask);
  Reg Pos = B.iconst(0);
  B.br(SH);
  B.setBlock(SH);
  B.condBr(CmpOp::Lt, Pos, Sz, SB, SX);
  B.setBlock(SB);
  Reg At = B.loadElem(A, Pos);
  B.condBr(CmpOp::Lt, At, Key, ST, SX);
  B.setBlock(ST);
  B.binInto(Pos, BinOp::Add, Pos, One);
  B.br(SH);
  B.setBlock(SX);
  B.ncallVoid("sink", {Pos});
  B.binInto(I, BinOp::Add, I, One);
  B.br(OH);
  B.setBlock(OX);
  B.ret(I);
  B.endFunction();
  M->finalize();
  return M;
}

TEST(PassPipelineTest, DeadStorePassMatchesLegacyOptimizer) {
  Workload W = buildWorkload("chart", 100);
  ProfiledRun P = profiledRun(*W.M);
  const FrozenGraph Sealed(P.Prof->graph());
  DeadValueAnalysis DV = computeDeadValues(Sealed, P.Run.ExecutedInstrs);
  OptimizeResult Legacy = removeProfiledDeadCode(*W.M, Sealed, DV);

  opt::PipelineResult R = runPipeline(*W.M, {"dead-stores"});
  ASSERT_TRUE(R.M);
  size_t RemovedStores = 0, RemovedPure = 0;
  for (const auto &[Name, S] : R.PerPass) {
    RemovedStores += S.RemovedStores;
    RemovedPure += S.RemovedPure;
  }
  EXPECT_EQ(RemovedStores, Legacy.Stats.RemovedStores);
  EXPECT_EQ(RemovedPure, Legacy.Stats.RemovedPure);
  expectPreserved(*W.M, R, "chart/dead-stores");
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
}

TEST(PassPipelineTest, MapToArrayRewritesSortedScan) {
  std::unique_ptr<Module> M = buildScanKernel(/*Sorted=*/true);
  opt::PipelineResult R = runPipeline(*M, {"map-to-array"});
  const opt::PassStats *S = statsFor(R, "map-to-array");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Applied, 1u);
  EXPECT_EQ(S->RolledBack, 0u);
  ASSERT_TRUE(R.M);
  EXPECT_NE(R.M->findFunction("lud.lowerBound"), kNoFunc);
  expectPreserved(*M, R, "sorted-scan/map-to-array");
  // Binary search beats the linear scan on the profiled input.
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
  ASSERT_FALSE(R.Outcomes.empty());
  EXPECT_NE(R.Outcomes.front().Rationale.find("build-once-read-many"),
            std::string::npos);
}

TEST(PassPipelineTest, MapToArrayRollsBackUnsortedScan) {
  // Same shape, shuffled contents: the evidence gate still fires (the
  // counters cannot see sortedness), but differential validation catches
  // the changed sink stream and rolls the candidate back.
  std::unique_ptr<Module> M = buildScanKernel(/*Sorted=*/false);
  opt::PipelineResult R = runPipeline(*M, {"map-to-array"});
  const opt::PassStats *S = statsFor(R, "map-to-array");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Applied, 0u);
  EXPECT_EQ(S->RolledBack, 1u);
  EXPECT_FALSE(R.M);
  ASSERT_FALSE(R.Outcomes.empty());
  EXPECT_FALSE(R.Outcomes.front().Applied);
  EXPECT_FALSE(R.Outcomes.front().Reason.empty());
}

TEST(PassPipelineTest, ClonePerOpHoistsThenUpdatesInPlace) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R = runPipeline(*W.M, {"clone-per-op"});
  const opt::PassStats *S = statsFor(R, "clone-per-op");
  ASSERT_NE(S, nullptr);
  // The designed cascade: hoist the loop-invariant matrix chain first,
  // then specialize the clone-then-update callee for the cooled-down site.
  EXPECT_EQ(S->Applied, 2u);
  bool SawHoist = false, SawInPlace = false;
  for (const opt::PassOutcome &O : R.Outcomes) {
    if (O.Applied && O.Target.find("hoist su_render") != std::string::npos)
      SawHoist = true;
    if (O.Applied && O.Target.find("inplace") != std::string::npos &&
        O.Target.find("Matrix.scale") != std::string::npos)
      SawInPlace = true;
  }
  EXPECT_TRUE(SawHoist);
  EXPECT_TRUE(SawInPlace);
  ASSERT_TRUE(R.M);
  EXPECT_NE(R.M->findFunction("Matrix.scale_inplace"), kNoFunc);
  expectPreserved(*W.M, R, "sunflow/clone-per-op");
  EXPECT_LT(R.AllocsAfter, R.AllocsBefore);
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
}

TEST(PassPipelineTest, OnceReadMemoRemovalFeedsFinalSweep) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R =
      runPipeline(*W.M, {"once-read-memo", "dead-stores-final"});
  const opt::PassStats *Memo = statsFor(R, "once-read-memo");
  const opt::PassStats *Sweep = statsFor(R, "dead-stores-final");
  ASSERT_NE(Memo, nullptr);
  ASSERT_NE(Sweep, nullptr);
  EXPECT_EQ(Memo->Applied, 1u);
  // The stranded memo table is the final sweep's food.
  EXPECT_GE(Sweep->Applied, 1u);
  EXPECT_GT(Sweep->RemovedStores, 0u);
  expectPreserved(*W.M, R, "sunflow/once-read-memo");
  EXPECT_LT(R.InstrsAfter, R.InstrsBefore);
}

TEST(PassPipelineTest, ReportRendersPassStatsAndRationales) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R = runPipeline(*W.M);
  StringOutStream OS;
  opt::renderOptimizeReport(R, OS);
  std::string Text = OS.str();
  EXPECT_NE(Text.find("=== Optimizer ==="), std::string::npos);
  EXPECT_NE(Text.find("pass clone-per-op"), std::string::npos);
  EXPECT_NE(Text.find("[applied]"), std::string::npos);
  EXPECT_NE(Text.find("evidence"), std::string::npos);
}

TEST(PassPipelineTest, StatsPublishedAsLudStatsV1) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult R = runPipeline(*W.M);
  ASSERT_TRUE(R.M);
  obs::MetricsRegistry Reg;
  opt::PassManager::accountStats(R, Reg);
  StringOutStream OS;
  Reg.writeJson(OS);
  std::string Json = OS.str();
  EXPECT_NE(Json.find("opt.removed_stores"), std::string::npos);
  EXPECT_NE(Json.find("opt.rewrites.clone_per_op"), std::string::npos);
  EXPECT_NE(Json.find("opt.passes_applied"), std::string::npos);
  EXPECT_NE(Json.find("opt.executed_after"), std::string::npos);
}

TEST(PassPipelineTest, UnknownPassNamesAreRejectedByLookup) {
  EXPECT_TRUE(opt::isKnownPassName("dead-stores"));
  EXPECT_TRUE(opt::isKnownPassName("map-to-array"));
  EXPECT_TRUE(opt::isKnownPassName("clone-per-op"));
  EXPECT_TRUE(opt::isKnownPassName("once-read-memo"));
  EXPECT_TRUE(opt::isKnownPassName("dead-stores-final"));
  EXPECT_FALSE(opt::isKnownPassName("loop-unroll"));
  EXPECT_FALSE(opt::isKnownPassName(""));
}

TEST(PassPipelineTest, AllRecipesPreservedOnBothEngines) {
  // The acceptance contract: whatever the pipeline commits on any of the
  // 18 analogues, the rewritten module reproduces the original's
  // observables on both engines.
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 48);
    opt::PipelineResult R = runPipeline(*W.M);
    EXPECT_EQ(R.ReferenceStatus, RunStatus::Finished) << Name;
    expectPreserved(*W.M, R, Name);
    if (R.M) {
      EXPECT_LE(R.InstrsAfter, R.InstrsBefore) << Name;
    }
  }
}

std::string printed(const Module &M) {
  StringOutStream OS;
  printModule(M, OS);
  return OS.str();
}

/// Expects two pipeline results to have made the same decisions and
/// produced the same module.
void expectSameResult(const opt::PipelineResult &A,
                      const opt::PipelineResult &B, const std::string &Ctx) {
  ASSERT_EQ(A.Outcomes.size(), B.Outcomes.size()) << Ctx;
  for (size_t I = 0; I != A.Outcomes.size(); ++I) {
    const opt::PassOutcome &X = A.Outcomes[I], &Y = B.Outcomes[I];
    EXPECT_EQ(X.Pass, Y.Pass) << Ctx << " #" << I;
    EXPECT_EQ(X.Target, Y.Target) << Ctx << " #" << I;
    EXPECT_EQ(X.Rationale, Y.Rationale) << Ctx << " #" << I;
    EXPECT_EQ(X.Applied, Y.Applied) << Ctx << " #" << I;
    EXPECT_EQ(X.Reason, Y.Reason) << Ctx << " #" << I;
  }
  ASSERT_EQ(A.PerPass.size(), B.PerPass.size()) << Ctx;
  for (size_t I = 0; I != A.PerPass.size(); ++I) {
    const auto &[NA, SA] = A.PerPass[I];
    const auto &[NB, SB] = B.PerPass[I];
    EXPECT_EQ(NA, NB) << Ctx;
    EXPECT_EQ(SA.Applied, SB.Applied) << Ctx << " " << NA;
    EXPECT_EQ(SA.RolledBack, SB.RolledBack) << Ctx << " " << NA;
    EXPECT_EQ(SA.RemovedStores, SB.RemovedStores) << Ctx << " " << NA;
    EXPECT_EQ(SA.RemovedPure, SB.RemovedPure) << Ctx << " " << NA;
    EXPECT_EQ(SA.RewrittenInstrs, SB.RewrittenInstrs) << Ctx << " " << NA;
  }
  EXPECT_EQ(A.InstrsBefore, B.InstrsBefore) << Ctx;
  EXPECT_EQ(A.InstrsAfter, B.InstrsAfter) << Ctx;
  EXPECT_EQ(A.AllocsBefore, B.AllocsBefore) << Ctx;
  EXPECT_EQ(A.AllocsAfter, B.AllocsAfter) << Ctx;
  ASSERT_EQ(A.M == nullptr, B.M == nullptr) << Ctx;
  if (A.M) {
    EXPECT_EQ(printed(*A.M), printed(*B.M)) << Ctx;
  }
}

TEST(PassPipelineTest, SeededPipelineMatchesUnseeded) {
  // lud-run hands the pipeline its report session's profile; the result
  // must be exactly what the pipeline reaches by profiling on its own.
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 200);
    ObfuscateOptions OO;
    OO.Seed = 1;
    OO.Junk = OO.Opaque = OO.Strings = true;
    ObfuscationResult Obf = obfuscateModule(*W.M, OO);
    const Module *Inputs[] = {W.M.get(), Obf.M.get()};
    for (const Module *M : Inputs) {
      for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
        std::string Ctx = Name + (M == W.M.get() ? "" : " obfuscated") +
                          " on " + engineKindName(E);
        opt::PipelineOptions PO;
        PO.Engine = E;
        opt::PipelineResult Unseeded = opt::PassManager(PO).run(*M);

        SessionConfig SC = SessionConfig::profiled();
        SC.Engine = E;
        ProfileSession S(SC);
        RunResult Run = S.run(*M).Run;
        FrozenGraph FG(S.slicing()->graph());
        opt::PipelineResult Seeded = opt::PassManager(PO).run(
            *M, opt::ModuleProfile{FG, Run});
        expectSameResult(Unseeded, Seeded, Ctx);
      }
    }
  }
}

/// Hands out scripted candidates, recording the evidence each next() saw.
class ScriptedPass : public opt::RewritePass {
public:
  using Step = std::function<std::unique_ptr<Module>()>;
  explicit ScriptedPass(std::vector<uint64_t> &Seen, std::deque<Step> Steps)
      : Seen(Seen), Steps(std::move(Steps)) {}
  const char *name() const override { return "scripted"; }
  std::optional<opt::RewriteCandidate>
  next(const opt::PassEvidence &E) override {
    Seen.push_back(E.ExecutedInstrs);
    if (Steps.empty())
      return std::nullopt;
    opt::RewriteCandidate C;
    C.M = Steps.front()();
    C.Target = "step " + std::to_string(Seen.size());
    C.Rationale = "scripted";
    Steps.pop_front();
    return C;
  }

private:
  std::vector<uint64_t> &Seen;
  std::deque<Step> Steps;
};

/// main: \p Pad dead constants, then sink(42) and return \p Ret. When
/// \p BadReg is set the sink reads a register past the frame.
std::unique_ptr<Module> buildStraightLine(int Pad, int64_t Ret,
                                          bool BadReg = false) {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  for (int I = 0; I != Pad; ++I)
    B.iconst(I);
  Reg V = B.iconst(42);
  B.ncallVoid("sink", {BadReg ? Reg(V + 100) : V});
  B.ret(B.iconst(Ret));
  B.endFunction();
  M->finalize();
  return M;
}

opt::PipelineResult runScripted(const Module &M, std::vector<uint64_t> &Seen,
                                std::deque<ScriptedPass::Step> Steps,
                                opt::PipelineOptions PO = {}) {
  PO.Engine = EngineKind::Interp;
  opt::PassManager PM(std::move(PO));
  PM.addPass(std::make_unique<ScriptedPass>(Seen, std::move(Steps)));
  return PM.run(M);
}

TEST(PassPipelineTest, VerifierRejectsCandidateBeforeRunningIt) {
  std::unique_ptr<Module> M = buildStraightLine(4, 7);
  std::unique_ptr<Module> Bad = buildStraightLine(4, 7, /*BadReg=*/true);
  std::vector<std::string> Diags;
  ASSERT_FALSE(verifyModule(*Bad, Diags));
  ASSERT_FALSE(Diags.empty());

  std::vector<uint64_t> Seen;
  opt::PipelineResult R = runScripted(
      *M, Seen, {[] { return buildStraightLine(4, 7, /*BadReg=*/true); }});
  ASSERT_EQ(R.Outcomes.size(), 1u);
  EXPECT_FALSE(R.Outcomes[0].Applied);
  EXPECT_EQ(R.Outcomes[0].Reason, "verifier: " + Diags[0]);
  EXPECT_FALSE(R.M);
  // Rejected unrun: no other-engine run was started for it either.
  EXPECT_EQ(R.OtherEngineRuns, 0u);
}

TEST(PassPipelineTest, RollbackKeepsPreviousEvidence) {
  std::unique_ptr<Module> M = buildStraightLine(4, 7);
  std::vector<uint64_t> Seen;
  opt::PipelineResult R = runScripted(
      *M, Seen,
      {[] { return buildStraightLine(6, 8); },   // diverges: rolled back
       [] { return buildStraightLine(1, 7); }}); // preserves: committed
  ASSERT_EQ(R.Outcomes.size(), 2u);
  EXPECT_FALSE(R.Outcomes[0].Applied);
  EXPECT_EQ(R.Outcomes[0].Reason, "return value diverged on interp");
  EXPECT_TRUE(R.Outcomes[1].Applied);
  // next() #2 still faces the input's evidence; next() #3 the committed
  // candidate's own validation profile.
  ASSERT_EQ(Seen.size(), 3u);
  EXPECT_EQ(Seen[0], R.InstrsBefore);
  EXPECT_EQ(Seen[1], R.InstrsBefore);
  EXPECT_EQ(Seen[2], R.InstrsAfter);
  EXPECT_EQ(R.InstrsAfter + 3, R.InstrsBefore);
}

TEST(PassPipelineTest, CapStopsPipelineAndSaysSo) {
  Workload W = buildWorkload("sunflow", 200);
  opt::PipelineResult Full = runPipeline(*W.M);
  ASSERT_GE(Full.applied(), 2u);
  EXPECT_FALSE(Full.Capped);

  // 33 candidates that each reproduce the input, then a pass that must
  // never be asked: the 32nd commit stops the pipeline.
  std::unique_ptr<Module> M = buildStraightLine(2, 5);
  std::vector<uint64_t> Seen, LaterSeen;
  std::deque<ScriptedPass::Step> Steps(
      33, [] { return buildStraightLine(2, 5); });
  opt::PipelineOptions PO;
  PO.Engine = EngineKind::Interp;
  opt::PassManager PM(PO);
  PM.addPass(std::make_unique<ScriptedPass>(Seen, std::move(Steps)));
  PM.addPass(std::make_unique<ScriptedPass>(LaterSeen,
                                            std::deque<ScriptedPass::Step>{}));
  opt::PipelineResult R = PM.run(*M);
  EXPECT_TRUE(R.Capped);
  EXPECT_EQ(R.applied(), 32u);
  EXPECT_EQ(Seen.size(), 32u);
  EXPECT_TRUE(LaterSeen.empty());

  StringOutStream Capped, Uncapped;
  opt::renderOptimizeReport(R, Capped);
  opt::renderOptimizeReport(Full, Uncapped);
  const std::string Line =
      "stopped at the cap of 32 applications; later passes did not run\n";
  EXPECT_NE(Capped.str().find(Line), std::string::npos);
  EXPECT_EQ(Uncapped.str().find("stopped at the cap"), std::string::npos);

  obs::MetricsRegistry RegCapped, RegFull;
  opt::PassManager::accountStats(R, RegCapped);
  opt::PassManager::accountStats(Full, RegFull);
  EXPECT_EQ(RegCapped.value(RegCapped.find("opt.capped")), 1u);
  EXPECT_EQ(RegFull.value(RegFull.find("opt.capped")), 0u);
}

TEST(PassPipelineTest, PhaseSpansCountProposalsAndValidations) {
  Workload W = buildWorkload("sunflow", 200);
  obs::MetricsRegistry Reg;
  opt::PipelineOptions PO;
  PO.Engine = EngineKind::Interp;
  PO.Stats = &Reg;
  opt::PipelineResult R = opt::PassManager(PO).run(*W.M);
  ASSERT_FALSE(R.Outcomes.empty());
  // Every candidate that reached validation also ran on the other engine.
  EXPECT_EQ(R.OtherEngineRuns, R.Outcomes.size());
  obs::MetricId Validate = Reg.find("phase.optimize.validate.spans");
  obs::MetricId Propose = Reg.find("phase.optimize.propose.spans");
  ASSERT_NE(Validate, obs::kNoMetric);
  ASSERT_NE(Propose, obs::kNoMetric);
  EXPECT_EQ(Reg.value(Validate), R.Outcomes.size());
  // One proposal per candidate plus one per pass that ran dry.
  EXPECT_EQ(Reg.value(Propose), R.Outcomes.size() + R.PerPass.size());
  EXPECT_NE(Reg.find("phase.optimize.validate.nanos"), obs::kNoMetric);
}

} // namespace
