//===- tests/analysis/ObfuscateClosedLoopTest.cpp - Obfuscate/strip loop ---===//
//
// The adversarial closed loop of the obfuscation layer: inject junk the
// report must rank above every genuine structure, opaque predicates the
// constancy client must prove, and string tables the optimizer must strip
// — then verify the strip restores the original observables on both
// engines.
//
//===----------------------------------------------------------------------===//

#include "analysis/Clients.h"
#include "analysis/CostModel.h"
#include "analysis/Optimizer.h"
#include "analysis/Report.h"
#include "ir/Obfuscate.h"
#include "ir/Verifier.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

ObfuscateOptions junkAndOpaque(uint64_t Seed) {
  ObfuscateOptions O;
  O.Seed = Seed;
  O.Junk = O.Opaque = true;
  return O;
}

TimedRun engineRun(const Module &M, EngineKind E) {
  SessionConfig C = SessionConfig::baseline();
  C.Engine = E;
  ProfileSession S(C);
  return S.run(M);
}

/// The junk accumulator site of \p Manifest (exactly one when junk is on).
AllocSiteId junkSite(const std::vector<ObfSiteTag> &Manifest) {
  AllocSiteId Site = kNoAllocSite;
  for (const ObfSiteTag &T : Manifest)
    if (T.Kind == ObfKind::Junk) {
      EXPECT_EQ(Site, kNoAllocSite) << "more than one junk site";
      Site = T.Site;
    }
  return Site;
}

TEST(ObfuscateClosedLoopTest, JunkOutranksEveryGenuineStructure) {
  // The paper-facing acceptance sweep: on every analogue, the injected
  // junk site must rank above all genuine structures, and the evidence-
  // driven strip must restore the un-obfuscated observables on both
  // engines.
  for (const std::string &Name : dacapoNames()) {
    SCOPED_TRACE(Name);
    Workload W = buildWorkload(Name, 100);
    TimedRun Orig = baselineRun(*W.M);
    ASSERT_EQ(Orig.Run.Status, RunStatus::Finished);

    ObfuscationResult Obf = obfuscateModule(*W.M, junkAndOpaque(7));
    std::vector<std::string> Errors;
    ASSERT_TRUE(verifyModule(*Obf.M, Errors))
        << (Errors.empty() ? "" : Errors.front());

    // Obfuscation must not change what the program computes.
    TimedRun ObfRun = baselineRun(*Obf.M);
    ASSERT_EQ(ObfRun.Run.Status, RunStatus::Finished);
    EXPECT_EQ(ObfRun.Run.ReturnValue.asInt(), Orig.Run.ReturnValue.asInt());
    EXPECT_EQ(ObfRun.Run.SinkHash, Orig.Run.SinkHash);

    // The report must put the junk accumulator above every genuine site.
    ProfiledRun P = profiledRun(*Obf.M);
    ASSERT_EQ(P.Run.Status, RunStatus::Finished);
    const FrozenGraph Sealed(P.Prof->graph());
    CostModel CM(Sealed);
    LowUtilityReport Report(CM, *Obf.M);
    AllocSiteId Junk = junkSite(Obf.Manifest);
    ASSERT_NE(Junk, kNoAllocSite);
    EXPECT_EQ(Report.rankOf(Junk), 0)
        << "junk must be the top-ranked site; top row is "
        << (Report.sites().empty() ? "(empty)"
                                   : Report.sites().front().Description);

    // The strip must remove the junk payloads and restore the original
    // observables, on the interpreter and the threaded engine alike.
    DeadValueAnalysis DV = computeDeadValues(Sealed, P.Run.ExecutedInstrs);
    OptimizeResult Opt = removeProfiledDeadCode(*Obf.M, Sealed, DV);
    ASSERT_GT(Opt.Stats.RemovedStores, 0u);
    for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
      TimedRun R = engineRun(*Opt.M, E);
      ASSERT_EQ(R.Run.Status, RunStatus::Finished);
      EXPECT_EQ(R.Run.ReturnValue.asInt(), Orig.Run.ReturnValue.asInt());
      EXPECT_EQ(R.Run.SinkHash, Orig.Run.SinkHash);
      EXPECT_LT(R.Run.ExecutedInstrs, ObfRun.Run.ExecutedInstrs);
    }

    // After the strip, the junk site no longer appears in the report.
    ProfiledRun P2 = profiledRun(*Opt.M);
    const FrozenGraph Sealed2(P2.Prof->graph());
    CostModel CM2(Sealed2);
    LowUtilityReport Clean(CM2, *Opt.M);
    for (const SiteScore &S : Clean.sites())
      EXPECT_EQ(S.Description.find("ObfJunk"), std::string::npos)
          << S.Description;
  }
}

TEST(ObfuscateClosedLoopTest, OpaquePredicatesProvedConstant) {
  Workload W = buildWorkload("chart", 150);
  ObfuscationResult Obf = obfuscateModule(*W.M, junkAndOpaque(7));
  std::set<InstrId> Tagged;
  for (const ObfSiteTag &T : Obf.Manifest)
    if (T.Kind == ObfKind::Opaque)
      Tagged.insert(T.Instr);
  ASSERT_FALSE(Tagged.empty());

  ProfiledRun P = profiledRun(*Obf.M);
  ASSERT_EQ(P.Run.Status, RunStatus::Finished);
  const FrozenGraph Sealed(P.Prof->graph());
  CostModel CM(Sealed);
  std::vector<ConstantPredicateRow> Rows =
      findConstantPredicates(*P.Prof, CM, *Obf.M);

  // Every guard that ran often enough to clear the client's two-execution
  // floor must be proved constant; at least one always does at this scale.
  size_t Proved = 0;
  for (const ConstantPredicateRow &R : Rows)
    if (Tagged.count(R.Instr))
      ++Proved;
  EXPECT_GT(Proved, 0u);
}

TEST(ObfuscateClosedLoopTest, StringTablesStripCompletely) {
  Workload W = buildWorkload("derby", 100);
  TimedRun Orig = baselineRun(*W.M);

  ObfuscateOptions O;
  O.Seed = 11;
  O.Strings = true;
  ObfuscationResult Obf = obfuscateModule(*W.M, O);
  ASSERT_FALSE(Obf.Manifest.empty());
  TimedRun ObfRun = baselineRun(*Obf.M);
  EXPECT_EQ(ObfRun.Run.SinkHash, Orig.Run.SinkHash);
  EXPECT_GT(ObfRun.Run.ExecutedInstrs, Orig.Run.ExecutedInstrs);

  // The decode subgraph feeds no consumer: the sweep removes the table
  // fill, the rewrites, and the tables themselves.
  ProfiledRun P = profiledRun(*Obf.M);
  const FrozenGraph Sealed(P.Prof->graph());
  DeadValueAnalysis DV = computeDeadValues(Sealed, P.Run.ExecutedInstrs);
  OptimizeResult Opt = removeProfiledDeadCode(*Obf.M, Sealed, DV);
  ASSERT_GT(Opt.Stats.RemovedStores, 0u);
  EXPECT_GT(Opt.Stats.RemovedPure, 0u);
  TimedRun After = baselineRun(*Opt.M);
  EXPECT_EQ(After.Run.ReturnValue.asInt(), Orig.Run.ReturnValue.asInt());
  EXPECT_EQ(After.Run.SinkHash, Orig.Run.SinkHash);
  EXPECT_LT(After.Run.ExecutedInstrs, ObfRun.Run.ExecutedInstrs);
}

TEST(ObfuscateClosedLoopTest, RandomProgramsSurviveObfuscation) {
  // The fuzzer's obfuscated shapes: generation with the knobs on must be
  // observably identical to generation with them off (same program seed).
  for (uint64_t Seed : {3u, 17u, 101u}) {
    SCOPED_TRACE(Seed);
    RandomProgramOptions Plain;
    Plain.Seed = Seed;
    std::unique_ptr<Module> M0 = generateRandomProgram(Plain);
    TimedRun R0 = baselineRun(*M0);

    RandomProgramOptions Obf = Plain;
    Obf.ObfJunk = Obf.ObfOpaque = Obf.ObfStrings = true;
    std::unique_ptr<Module> M1 = generateRandomProgram(Obf);
    TimedRun R1 = baselineRun(*M1);
    ASSERT_EQ(R1.Run.Status, RunStatus::Finished);
    EXPECT_EQ(R1.Run.ReturnValue.asInt(), R0.Run.ReturnValue.asInt());
    EXPECT_EQ(R1.Run.SinkHash, R0.Run.SinkHash);
  }
}

} // namespace
