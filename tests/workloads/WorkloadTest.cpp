//===- tests/workloads/WorkloadTest.cpp - DaCapo-style generators ----------===//

#include "analysis/Clients.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "ir/Obfuscate.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/OutStream.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

class WorkloadParamTest : public ::testing::TestWithParam<std::string> {};

TEST_P(WorkloadParamTest, BuildsVerifiesAndRuns) {
  Workload W = buildWorkload(GetParam(), 100);
  ASSERT_TRUE(W.M);
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*W.M, Errors));
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;

  TimedRun R = baselineRun(*W.M);
  EXPECT_EQ(R.Run.Status, RunStatus::Finished)
      << "trap: " << trapKindName(R.Run.Trap);
  EXPECT_GT(R.Run.ExecutedInstrs, 1000u);
  EXPECT_NE(R.Run.SinkHash, 0u);
}

TEST_P(WorkloadParamTest, DeterministicAcrossRuns) {
  Workload W = buildWorkload(GetParam(), 64);
  TimedRun R1 = baselineRun(*W.M);
  TimedRun R2 = baselineRun(*W.M);
  EXPECT_EQ(R1.Run.ExecutedInstrs, R2.Run.ExecutedInstrs);
  EXPECT_EQ(R1.Run.SinkHash, R2.Run.SinkHash);
  EXPECT_EQ(R1.Run.ReturnValue.asInt(), R2.Run.ReturnValue.asInt());
}

TEST_P(WorkloadParamTest, ProfiledRunMatchesBaselineSemantics) {
  Workload W = buildWorkload(GetParam(), 64);
  TimedRun Base = baselineRun(*W.M);
  ProfiledRun Prof = profiledRun(*W.M);
  EXPECT_EQ(Prof.Run.Status, RunStatus::Finished);
  EXPECT_EQ(Prof.Run.ExecutedInstrs, Base.Run.ExecutedInstrs);
  EXPECT_EQ(Prof.Run.SinkHash, Base.Run.SinkHash);
}

TEST_P(WorkloadParamTest, GraphSizeIsAbstractionBounded) {
  // Scaling the run up must not scale the graph with it: the node count is
  // bounded by static instructions x context slots.
  Workload Small = buildWorkload(GetParam(), 64);
  Workload Large = buildWorkload(GetParam(), 256);
  ProfiledRun PS = profiledRun(*Small.M);
  ProfiledRun PL = profiledRun(*Large.M);
  EXPECT_GT(PL.Run.ExecutedInstrs, PS.Run.ExecutedInstrs);
  const size_t Bound =
      size_t(Large.M->getNumInstrs()) * (PL.Prof->config().ContextSlots + 1);
  EXPECT_LE(PL.Prof->graph().numNodes(), Bound);
  // Graph growth is far slower than execution growth.
  double InstrRatio = double(PL.Run.ExecutedInstrs) /
                      double(std::max<uint64_t>(PS.Run.ExecutedInstrs, 1));
  double NodeRatio = double(PL.Prof->graph().numNodes()) /
                     double(std::max<size_t>(PS.Prof->graph().numNodes(), 1));
  EXPECT_LT(NodeRatio, InstrRatio / 1.5);
}

INSTANTIATE_TEST_SUITE_P(AllDaCapo, WorkloadParamTest,
                         ::testing::ValuesIn(dacapoNames()),
                         [](const auto &Info) { return Info.param; });

class CaseStudyTest : public ::testing::TestWithParam<std::string> {};

TEST_P(CaseStudyTest, OptimizedVariantDoesLessWork) {
  Workload Orig = buildWorkload(GetParam(), 200, /*Optimized=*/false);
  Workload Opt = buildWorkload(GetParam(), 200, /*Optimized=*/true);
  TimedRun RO = baselineRun(*Orig.M);
  TimedRun RF = baselineRun(*Opt.M);
  ASSERT_EQ(RO.Run.Status, RunStatus::Finished);
  ASSERT_EQ(RF.Run.Status, RunStatus::Finished);
  EXPECT_LT(RF.Run.ExecutedInstrs, RO.Run.ExecutedInstrs)
      << "the fix must reduce executed instructions";
}

TEST_P(CaseStudyTest, PlantedStructuresRankHigh) {
  Workload W = buildWorkload(GetParam(), 200);
  ASSERT_FALSE(W.PlantedSites.empty());
  ProfiledRun P = profiledRun(*W.M);
  const FrozenGraph Sealed(P.Prof->graph());
  CostModel CM(Sealed);
  LowUtilityReport Report(CM, *W.M);
  ASSERT_FALSE(Report.sites().empty());
  // The tool surfaces each kind of bloat through the matching client: the
  // cost-benefit ranking for low-utility structures, the overwrite ranking
  // for derby-style written-more-than-read locations (Section 3.2).
  int BestRank = -1;
  for (AllocSiteId Site : W.PlantedSites) {
    int R = Report.rankOf(Site);
    if (R >= 0 && (BestRank < 0 || R < BestRank))
      BestRank = R;
  }
  std::vector<OverwriteRow> OW = rankOverwrites(*P.Prof, *W.M);
  int BestOW = -1;
  for (AllocSiteId Site : W.PlantedSites) {
    int R = overwriteRankOf(OW, Site);
    if (R >= 0 && (BestOW < 0 || R < BestOW))
      BestOW = R;
  }
  ASSERT_TRUE(BestRank >= 0 || BestOW >= 0)
      << "no planted site surfaced in any client";
  bool Surfaced = (BestRank >= 0 && BestRank < 10) ||
                  (BestOW >= 0 && BestOW < 5);
  EXPECT_TRUE(Surfaced) << "planted structure buried: report rank "
                        << BestRank << ", overwrite rank " << BestOW;
}

INSTANTIATE_TEST_SUITE_P(
    SixFixes, CaseStudyTest,
    ::testing::Values("bloat", "eclipse", "sunflow", "derby", "tomcat",
                      "tradebeans"),
    [](const auto &Info) { return Info.param; });

TEST(WorkloadTest, UnoptimizedOutranksOptimizedInDeadWork) {
  // The fixes reduce IPD: the fraction of instruction instances producing
  // ultimately-dead values drops in every optimized variant.
  for (const char *Name : {"bloat", "derby", "tomcat"}) {
    Workload Orig = buildWorkload(Name, 150, false);
    Workload Opt = buildWorkload(Name, 150, true);
    ProfiledRun PO = profiledRun(*Orig.M);
    ProfiledRun PF = profiledRun(*Opt.M);
    const FrozenGraph SO(PO.Prof->graph()), SF(PF.Prof->graph());
    BloatMetrics MO = computeDeadValues(SO, PO.Run.ExecutedInstrs).Metrics;
    BloatMetrics MF = computeDeadValues(SF, PF.Run.ExecutedInstrs).Metrics;
    EXPECT_GT(MO.ipd(), MF.ipd()) << Name;
  }
}

TEST(WorkloadTest, PhaseMaskingShrinksTracking) {
  Workload W = buildWorkload("tradebeans", 200);
  SlicingConfig Full;
  SlicingConfig LoadOnly;
  LoadOnly.TrackedPhaseMask = 1ull << 1; // Track only the load phase.
  ProfiledRun PF = profiledRun(*W.M, Full);
  ProfiledRun PL = profiledRun(*W.M, LoadOnly);
  EXPECT_LT(PL.Prof->graph().totalFreq(), PF.Prof->graph().totalFreq());
  EXPECT_LT(PL.Prof->graph().numNodes(), PF.Prof->graph().numNodes());
  // Identical program behaviour regardless of tracking.
  EXPECT_EQ(PL.Run.SinkHash, PF.Run.SinkHash);
}

TEST(WorkloadTest, OptimizedVariantsOnlyForCaseStudies) {
  int Count = 0;
  for (const std::string &Name : dacapoNames())
    if (hasOptimizedVariant(Name))
      ++Count;
  EXPECT_EQ(Count, 6);
  EXPECT_FALSE(hasOptimizedVariant("chart"));
}

/// \p M survives print -> parse -> print unchanged and behaves identically.
void expectTextRoundTrip(const Module &M, const std::string &Name) {
  StringOutStream Text1;
  printModule(M, Text1);
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M2 = parseModule(Text1.str(), Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << Name << ": " << E;
  ASSERT_TRUE(M2) << Name;
  StringOutStream Text2;
  printModule(*M2, Text2);
  EXPECT_EQ(Text1.str(), Text2.str()) << Name;
  TimedRun R1 = baselineRun(M);
  TimedRun R2 = baselineRun(*M2);
  EXPECT_EQ(R1.Run.ExecutedInstrs, R2.Run.ExecutedInstrs) << Name;
  EXPECT_EQ(R1.Run.SinkHash, R2.Run.SinkHash) << Name;
}

TEST(WorkloadTest, TextRoundTripPreservesBehaviour) {
  // Every generated workload, plain and obfuscated as the benchmark
  // obfuscates it, and the composed tier survive the text round trip — a
  // heavy stress of the textual frontend.
  ObfuscateOptions Obf;
  Obf.Junk = Obf.Opaque = Obf.Strings = true;
  Obf.Seed = 1;
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 32);
    expectTextRoundTrip(*W.M, Name);
    expectTextRoundTrip(*obfuscateModule(*W.M, Obf).M, Name + " obfuscated");
  }
  expectTextRoundTrip(*buildComposedWorkload(40).M, "composed");
}

TEST(WorkloadTest, CollectionRankingClientFiltersContainers) {
  // Section 3.2's "problematic collections" client: restrict the ranking
  // to the stdlib container classes and check every row is a container
  // and the order is preserved.
  Workload W = buildWorkload("eclipse", 150);
  ProfiledRun P = profiledRun(*W.M);
  const FrozenGraph Sealed(P.Prof->graph());
  CostModel CM(Sealed);
  LowUtilityReport Report(CM, *W.M);
  std::vector<ClassId> Containers = {W.M->findClass("IntVec"),
                                     W.M->findClass("RefVec"),
                                     W.M->findClass("StrMap")};
  std::vector<SiteScore> Rows = Report.filterByClass(*W.M, Containers);
  ASSERT_FALSE(Rows.empty());
  double Prev = 1e300;
  for (const SiteScore &S : Rows) {
    const auto *A = dyn_cast<AllocInst>(W.M->getAllocSite(S.Site));
    ASSERT_NE(A, nullptr);
    bool IsContainer = false;
    for (ClassId C : Containers)
      IsContainer |= A->Class == C;
    EXPECT_TRUE(IsContainer);
    EXPECT_LE(S.Ratio, Prev);
    Prev = S.Ratio;
  }
  // The Figure 6 pattern's RefVec (built only to be null-checked) must be
  // among the ranked containers.
  bool SawRefVec = false;
  for (const SiteScore &S : Rows) {
    const auto *A = cast<AllocInst>(W.M->getAllocSite(S.Site));
    SawRefVec |= A->Class == W.M->findClass("RefVec");
  }
  EXPECT_TRUE(SawRefVec);
}

TEST(WorkloadTest, EighteenDistinctWorkloads) {
  EXPECT_EQ(dacapoNames().size(), 18u);
  std::vector<std::string> Names = dacapoNames();
  std::sort(Names.begin(), Names.end());
  EXPECT_EQ(std::unique(Names.begin(), Names.end()), Names.end());
}

} // namespace
