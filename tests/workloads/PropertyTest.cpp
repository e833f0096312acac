//===- tests/workloads/PropertyTest.cpp - Randomized invariant sweeps ------===//
//
// Property-based tests: seeded random programs (workloads/RandomProgram.h)
// are swept through the whole pipeline and analysis invariants are checked
// on each. TEST_P over seeds gives a corpus of program shapes nobody wrote
// by hand.
//
//===----------------------------------------------------------------------===//

#include "analysis/CacheCost.h"
#include "analysis/CostModel.h"
#include "analysis/DeadValues.h"
#include "analysis/MultiHop.h"
#include "analysis/Report.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "support/OutStream.h"
#include "workloads/Driver.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

class RandomProgramTest : public ::testing::TestWithParam<uint64_t> {
protected:
  std::unique_ptr<Module> makeProgram() {
    RandomProgramOptions Opts;
    Opts.Seed = GetParam();
    Opts.NumClasses = 2 + unsigned(GetParam() % 3);
    Opts.NumFunctions = 3 + unsigned(GetParam() % 4);
    Opts.OpsPerFunction = 24 + unsigned(GetParam() % 17);
    return generateRandomProgram(Opts);
  }
};

TEST_P(RandomProgramTest, RunsToCompletionDeterministically) {
  auto M = makeProgram();
  TimedRun R1 = baselineRun(*M);
  TimedRun R2 = baselineRun(*M);
  ASSERT_EQ(R1.Run.Status, RunStatus::Finished)
      << "trap: " << trapKindName(R1.Run.Trap);
  EXPECT_EQ(R1.Run.ExecutedInstrs, R2.Run.ExecutedInstrs);
  EXPECT_EQ(R1.Run.SinkHash, R2.Run.SinkHash);
  EXPECT_EQ(R1.Run.ReturnValue.asInt(), R2.Run.ReturnValue.asInt());
}

TEST_P(RandomProgramTest, ProfilingIsSemanticallyTransparent) {
  auto M = makeProgram();
  TimedRun Base = baselineRun(*M);
  ProfiledRun Prof = profiledRun(*M);
  ASSERT_EQ(Prof.Run.Status, Base.Run.Status);
  EXPECT_EQ(Prof.Run.ExecutedInstrs, Base.Run.ExecutedInstrs);
  EXPECT_EQ(Prof.Run.SinkHash, Base.Run.SinkHash);
  EXPECT_EQ(Prof.Run.ReturnValue.asInt(), Base.Run.ReturnValue.asInt());
}

TEST_P(RandomProgramTest, GraphStructuralInvariants) {
  auto M = makeProgram();
  ProfiledRun P = profiledRun(*M);
  const DepGraph &G = P.Prof->graph();

  // Node count bounded by |I| x (|D| + 1) (the +1 covers the context-free
  // consumer nodes).
  EXPECT_LE(G.numNodes(),
            size_t(M->getNumInstrs()) * (P.Prof->config().ContextSlots + 1));

  // In/Out adjacency is symmetric and references valid nodes.
  const FrozenGraph F(G);
  size_t OutTotal = 0, InTotal = 0;
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    for (NodeId S : F.out(N)) {
      ASSERT_LT(S, G.numNodes());
      bool Back = false;
      for (NodeId Pred : F.in(S))
        Back |= Pred == N;
      EXPECT_TRUE(Back) << "missing back edge";
    }
    OutTotal += F.outDegree(N);
    InTotal += F.inDegree(N);
    // Frequencies are positive: nodes only exist if they executed.
    EXPECT_GT(G.freq(N), 0u);
  }
  EXPECT_EQ(OutTotal, InTotal);
  EXPECT_EQ(OutTotal, G.numEdges());

  // Covered instances cannot exceed executed instructions.
  EXPECT_LE(G.totalFreq(), P.Run.ExecutedInstrs);
}

TEST_P(RandomProgramTest, CostModelMonotonicity) {
  auto M = makeProgram();
  ProfiledRun P = profiledRun(*M);
  const DepGraph &G = P.Prof->graph();
  const FrozenGraph Sealed(G);
  CostModel CM(Sealed);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    // Single-hop cost never exceeds the full abstract cost, and both
    // include the node's own frequency.
    uint64_t Hrac = CM.hrac(N);
    uint64_t Abs = CM.abstractCost(N);
    EXPECT_LE(Hrac, Abs);
    EXPECT_GE(Hrac, G.freq(N));
    EXPECT_GE(CM.hrab(N).Benefit, G.freq(N));
  }
}

TEST_P(RandomProgramTest, DeadValueMetricsAreFractions) {
  auto M = makeProgram();
  ProfiledRun P = profiledRun(*M);
  DeadValueAnalysis DV =
      computeDeadValues(FrozenGraph(P.Prof->graph()), P.Run.ExecutedInstrs);
  EXPECT_GE(DV.Metrics.ipd(), 0.0);
  EXPECT_LE(DV.Metrics.ipd(), 1.0);
  EXPECT_GE(DV.Metrics.ipp(), 0.0);
  EXPECT_LE(DV.Metrics.ipp(), 1.0);
  EXPECT_GE(DV.Metrics.nld(), 0.0);
  EXPECT_LE(DV.Metrics.nld(), 1.0);
  // D* and P* are disjoint.
  for (size_t N = 0; N != DV.Dead.size(); ++N)
    EXPECT_FALSE(DV.Dead[N] && DV.PredicateOnly[N]);
}

TEST_P(RandomProgramTest, ThinSlicingNeverAddsEdges) {
  auto M = makeProgram();
  SlicingConfig Thin;
  SlicingConfig Trad;
  Trad.ThinSlicing = false;
  ProfiledRun PThin = profiledRun(*M, Thin);
  ProfiledRun PTrad = profiledRun(*M, Trad);
  EXPECT_LE(PThin.Prof->graph().numEdges(), PTrad.Prof->graph().numEdges());
  EXPECT_EQ(PThin.Prof->graph().numNodes(), PTrad.Prof->graph().numNodes());
}

TEST_P(RandomProgramTest, ContextInsensitivityNeverAddsNodes) {
  auto M = makeProgram();
  SlicingConfig Sens;
  SlicingConfig Insens;
  Insens.ContextSensitive = false;
  ProfiledRun PS = profiledRun(*M, Sens);
  ProfiledRun PI = profiledRun(*M, Insens);
  EXPECT_GE(PS.Prof->graph().numNodes(), PI.Prof->graph().numNodes());
  EXPECT_GE(PS.Prof->averageCR(), 0.0);
  EXPECT_LE(PS.Prof->averageCR(), 1.0);
}

TEST_P(RandomProgramTest, PrinterParserRoundTrip) {
  auto M = makeProgram();
  StringOutStream Text1;
  printModule(*M, Text1);
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M2 = parseModule(Text1.str(), Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  ASSERT_TRUE(M2);
  StringOutStream Text2;
  printModule(*M2, Text2);
  EXPECT_EQ(Text1.str(), Text2.str());
  // And the reparsed program behaves identically.
  TimedRun R1 = baselineRun(*M);
  TimedRun R2 = baselineRun(*M2);
  EXPECT_EQ(R1.Run.ExecutedInstrs, R2.Run.ExecutedInstrs);
  EXPECT_EQ(R1.Run.SinkHash, R2.Run.SinkHash);
}

TEST_P(RandomProgramTest, ReportIsWellFormed) {
  auto M = makeProgram();
  ProfiledRun P = profiledRun(*M);
  const FrozenGraph Sealed(P.Prof->graph());
  CostModel CM(Sealed);
  LowUtilityReport Report(CM, *M);
  double PrevRatio = -1;
  for (size_t I = 0; I != Report.sites().size(); ++I) {
    const SiteScore &S = Report.sites()[I];
    EXPECT_GE(S.NRac, 0.0);
    EXPECT_GE(S.NRab, 0.0);
    EXPECT_GE(S.Ratio, 0.0);
    if (I > 0) {
      EXPECT_LE(S.Ratio, PrevRatio); // Sorted descending.
    }
    PrevRatio = S.Ratio;
    EXPECT_LT(S.Site, M->getNumAllocSites());
  }
}

TEST_P(RandomProgramTest, MultiHopIsMonotoneAndAnchoredAtDefinition5) {
  auto M = makeProgram();
  ProfiledRun P = profiledRun(*M);
  FrozenGraph G(P.Prof->graph());
  CostModel CM(G);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    EXPECT_EQ(multiHopCost(G, N, 1), CM.hrac(N));
    uint64_t Prev = 0;
    for (unsigned K = 1; K <= 3; ++K) {
      uint64_t Cost = multiHopCost(G, N, K);
      EXPECT_GE(Cost, Prev);
      // Never exceeds the unbounded backward slice (Definition 4).
      EXPECT_LE(Cost, CM.abstractCost(N));
      Prev = Cost;
    }
  }
}

TEST_P(RandomProgramTest, CacheScoresAreWellFormed) {
  auto M = makeProgram();
  ProfiledRun P = profiledRun(*M);
  const FrozenGraph Sealed(P.Prof->graph());
  CostModel CM(Sealed);
  for (const CacheScore &S : rankCacheEffectiveness(CM, *M)) {
    EXPECT_GE(S.SpineCost, 0.0);
    EXPECT_GE(S.SavedWork, 0.0);
    EXPECT_GE(S.Effectiveness, 0.0);
    EXPECT_LT(S.Site, M->getNumAllocSites());
    EXPECT_FALSE(S.Description.empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomProgramTest,
                         ::testing::Range(uint64_t(1), uint64_t(25)));

} // namespace
