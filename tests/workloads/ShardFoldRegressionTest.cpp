//===- tests/workloads/ShardFoldRegressionTest.cpp - Shard fold pins ------===//
//
// Fuzz-derived regression pins for the parallel driver's fold invariant:
// runShardedSession(M, S, Cfg, T) must land in exactly the state of one
// session that ran the module S times sequentially — same Gcost bytes,
// same client reports, for every thread count. MergeEquivalenceTest
// proves this for the built-in workloads; these seeds pin it for the
// random-program shapes the differential fuzzer sweeps (recursion,
// aliasing, null flows, globals), where a fold that depends on shard
// arrival order is most likely to slip. The replay side of the same shard
// loop, replayShardedSession, is pinned here too.
//
//===----------------------------------------------------------------------===//

#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"
#include "workloads/ParallelDriver.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace lud;

namespace {

constexpr ClientSet kAllClients = ClientSet::all();

SessionConfig sessionConfig() {
  SessionConfig Cfg;
  Cfg.Instrument = true;
  Cfg.Clients = kAllClients;
  return Cfg;
}

std::string graphBytes(const ProfileSession &S) {
  StringOutStream OS;
  if (S.slicing())
    writeGraph(FrozenGraph(S.slicing()->graph()), OS);
  return OS.str();
}

std::string reportBytes(const ProfileSession &S, const Module &M) {
  StringOutStream OS;
  S.printClientReports(M, OS);
  return OS.str();
}

std::unique_ptr<Module> fuzzShape(uint64_t Seed) {
  RandomProgramOptions P;
  P.Seed = Seed;
  P.NumFunctions = 5;
  P.OpsPerFunction = 40;
  P.NumGlobals = 2;
  P.Recursion = true;
  P.Aliasing = true;
  P.NullFlows = true;
  return generateRandomProgram(P);
}

TEST(ShardFoldRegressionTest, FoldMatchesSequentialReuse) {
  for (uint64_t Seed : {5u, 28u, 63u}) {
    std::unique_ptr<Module> M = fuzzShape(Seed);
    for (unsigned Shards : {2u, 4u, 8u}) {
      // Reference: one session, run() S times.
      ProfileSession Seq(sessionConfig());
      RunResult SeqRun;
      for (unsigned I = 0; I != Shards; ++I)
        SeqRun = Seq.run(*M).Run;
      const std::string SeqGraph = graphBytes(Seq);
      const std::string SeqReports = reportBytes(Seq, *M);

      for (unsigned Threads : {1u, 4u}) {
        ShardedSession Sh =
            runShardedSession(*M, Shards, sessionConfig(), Threads);
        ASSERT_TRUE(Sh.Error.empty())
            << "seed " << Seed << " shards " << Shards << ": " << Sh.Error;
        ASSERT_NE(Sh.Session, nullptr);
        EXPECT_EQ(Sh.Run.Status, SeqRun.Status);
        EXPECT_EQ(Sh.TotalInstrs, uint64_t(Shards) * SeqRun.ExecutedInstrs)
            << "seed " << Seed << " shards " << Shards;
        EXPECT_EQ(graphBytes(*Sh.Session), SeqGraph)
            << "seed " << Seed << " shards " << Shards << " threads "
            << Threads << ": fold is not order-invariant";
        EXPECT_EQ(reportBytes(*Sh.Session, *M), SeqReports)
            << "seed " << Seed << " shards " << Shards << " threads "
            << Threads;
      }
    }
  }
}

// An unreadable shard file fails the replay with the replayFile diagnostic,
// prefixed by the path, and yields no folded session.
TEST(ShardFoldRegressionTest, ReplayShardedSessionReportsUnreadableFiles) {
  Workload W = buildWorkload("chart", 40);
  ShardedSession R = replayShardedSession(
      *W.M, {"/nonexistent/lud-test.trace"}, sessionConfig());
  EXPECT_FALSE(R.Session);
  EXPECT_NE(R.Error.find("/nonexistent/lud-test.trace: cannot read"),
            std::string::npos)
      << R.Error;
}

} // namespace
