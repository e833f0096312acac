//===- tests/analysis/EvidenceTest.cpp - UsageSummary classification -------===//

#include "analysis/Evidence.h"

#include "analysis/DeadValues.h"
#include "profiling/FrozenGraph.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

struct EvidenceRun {
  Workload W;
  UsageEvidence E;
  RunResult Run;
};

/// Profiles the named recipe and folds the evidence layer, exactly as the
/// pass pipeline does before proposing rewrites.
EvidenceRun buildEvidence(const std::string &Name, int64_t Scale) {
  EvidenceRun Out{buildWorkload(Name, Scale), {}, {}};
  ProfiledRun P = profiledRun(*Out.W.M);
  EXPECT_EQ(P.Run.Status, RunStatus::Finished) << Name;
  Out.Run = P.Run;
  FrozenGraph G(P.Prof->graph());
  DeadValueAnalysis DV = computeDeadValues(G, P.Run.ExecutedInstrs);
  Out.E = summarizeUsage(*Out.W.M, G, &DV);
  return Out;
}

/// The unique site summary whose description contains \p Needle.
const UsageSummary *findSite(const UsageEvidence &E, const std::string &Needle) {
  const UsageSummary *Found = nullptr;
  for (const UsageSummary &S : E.Sites) {
    if (S.Description.find(Needle) == std::string::npos)
      continue;
    EXPECT_EQ(Found, nullptr) << "ambiguous needle " << Needle << ": "
                              << Found->Description << " vs " << S.Description;
    Found = &S;
  }
  return Found;
}

TEST(EvidenceTest, SunflowMemoTableIsOnceRead) {
  // The paper's sunflow case study: a bits-cache whose every value is read
  // exactly once never pays for itself (EXPERIMENTS.md Section 1).
  EvidenceRun R = buildEvidence("sunflow", 200);
  const UsageSummary *S = findSite(R.E, "su_bits");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Kind, UsageKind::OnceRead) << usageKindName(S->Kind);
  EXPECT_EQ(S->Writes, 200u);
  EXPECT_EQ(S->Reads, 200u);
  EXPECT_EQ(S->ReadsAfterLastWrite, 200u);
  EXPECT_EQ(S->Overwrites, 0u);
}

TEST(EvidenceTest, SunflowMatrixCloneIsClonePerOp) {
  // Matrix ops clone the receiver on every operation: many short-lived
  // instances with paired write/read volumes.
  EvidenceRun R = buildEvidence("sunflow", 200);
  const UsageSummary *S = findSite(R.E, "new Matrix @ Matrix.clone");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Kind, UsageKind::ClonePerOp) << usageKindName(S->Kind);
  EXPECT_EQ(S->Instances, 50u);
  EXPECT_EQ(S->Writes, 100u);
  EXPECT_EQ(S->Reads, 175u);
}

TEST(EvidenceTest, DerbyMetadataIsOverwriteDominated) {
  // Section 3.2's rewritten-before-read shape: the container metadata
  // array is refreshed on every page write but read once at the end.
  EvidenceRun R = buildEvidence("derby", 200);
  const UsageSummary *S = findSite(R.E, "new int[] @ de_meta");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Kind, UsageKind::OverwriteDominated) << usageKindName(S->Kind);
  EXPECT_GE(2 * S->Overwrites, S->Writes);
  EXPECT_LT(S->Reads, S->Writes);
}

TEST(EvidenceTest, DerbyPageIndexIsBuildOnceReadMany) {
  // The page index fills its 128 sorted slots early, then every op only
  // probes: the build phase is bounded while reads grow with scale.
  EvidenceRun R = buildEvidence("derby", 400);
  const UsageSummary *S = findSite(R.E, "de_pages");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S->Kind, UsageKind::BuildOnceReadMany) << usageKindName(S->Kind);
  EXPECT_GE(S->Reads, 4 * S->Writes);
  EXPECT_GT(S->ReadsAfterLastWrite, 0u);
}

TEST(EvidenceTest, ClassificationIsScaleSensitive) {
  // At small scale the page index is still mid-build: the classifier must
  // not call a pattern it has no evidence for.
  EvidenceRun R = buildEvidence("derby", 200);
  const UsageSummary *S = findSite(R.E, "de_pages");
  ASSERT_NE(S, nullptr);
  EXPECT_NE(S->Kind, UsageKind::BuildOnceReadMany);
}

TEST(EvidenceTest, AllRecipesProduceCoherentSummaries) {
  for (const std::string &Name : dacapoNames()) {
    EvidenceRun R = buildEvidence(Name, 48);
    ASSERT_EQ(R.E.Sites.size(), R.W.M->getNumAllocSites()) << Name;
    uint64_t ActiveSites = 0;
    for (const UsageSummary &S : R.E.Sites) {
      EXPECT_FALSE(S.IsStatic) << Name;
      // Internal consistency of the folded counters.
      EXPECT_LE(S.Overwrites, S.Writes) << Name << ": " << S.Description;
      EXPECT_LE(S.ReadsAfterLastWrite, S.Reads) << Name << ": "
                                                << S.Description;
      if (S.Writes + S.Reads > 0) {
        ++ActiveSites;
        EXPECT_GT(S.Locs, 0u) << Name << ": " << S.Description;
        EXPECT_FALSE(S.Description.empty()) << Name;
      }
      // Too little evidence must never classify as a pattern.
      if (S.Writes + S.Reads < 16)
        EXPECT_EQ(S.Kind, UsageKind::Balanced) << Name << ": "
                                               << S.Description;
    }
    EXPECT_GT(ActiveSites, 0u) << Name;
    for (const UsageSummary &S : R.E.Statics) {
      EXPECT_TRUE(S.IsStatic) << Name;
      EXPECT_LE(S.Overwrites, S.Writes) << Name << ": " << S.Description;
      EXPECT_LE(S.ReadsAfterLastWrite, S.Reads) << Name << ": "
                                                << S.Description;
    }
  }
}

} // namespace
