//===- tests/profiling/FuzzRegressionTest.cpp - Caches-flip pins ----------===//
//
// Fuzz-derived regression pins for SlicingConfig::HotPathCaches. The
// caches document a hard promise: bit-identical results on and off. The
// differential fuzzer exercises this across random programs; these fixed
// seeds pin the promise in the tier-1 suite so a cache that starts
// observing its own presence fails here with a byte diff, not only in a
// nightly fuzz job. Seeds were picked from fuzz corpus sweeps to cover
// recursion, aliasing through ref fields, null flows, dead stores, and
// global traffic — the shapes most likely to disturb memoization. Every
// case compares the copy, nullness and typestate graphs too, since each
// client graph resolves its events through DepGraph's per-instruction memo.
//
//===----------------------------------------------------------------------===//

#include "ir/Parser.h"
#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "workloads/Driver.h"
#include "workloads/ParallelDriver.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

using namespace lud;

namespace {

constexpr ClientSet kAllClients = ClientSet::all();

struct Artifacts {
  RunResult Run;
  std::string Graph;
  /// The copy, nullness and typestate graphs, serialized back to back.
  std::string ClientGraphs;
  std::string Reports;
};

Artifacts runWithCaches(const Module &M, bool Caches, uint32_t Slots,
                        bool Thin = true) {
  SessionConfig Cfg;
  Cfg.Instrument = true;
  Cfg.Clients = kAllClients;
  Cfg.Slicing.HotPathCaches = Caches;
  Cfg.Slicing.ContextSlots = Slots;
  Cfg.Slicing.ThinSlicing = Thin;
  ProfileSession S(Cfg);
  Artifacts A;
  A.Run = S.run(M).Run;
  StringOutStream GS;
  writeGraph(FrozenGraph(S.slicing()->graph()), GS);
  A.Graph = GS.str();
  StringOutStream CS;
  writeGraph(FrozenGraph(S.copy()->graph()), CS);
  writeGraph(FrozenGraph(S.nullness()->graph()), CS);
  writeGraph(FrozenGraph(S.typestate()->graph()), CS);
  A.ClientGraphs = CS.str();
  StringOutStream RS;
  S.printClientReports(M, RS);
  A.Reports = RS.str();
  return A;
}

void expectSameArtifacts(const Artifacts &On, const Artifacts &Off,
                         const std::string &What) {
  EXPECT_EQ(On.Run.Status, Off.Run.Status) << What;
  EXPECT_EQ(On.Run.ExecutedInstrs, Off.Run.ExecutedInstrs) << What;
  EXPECT_EQ(On.Run.SinkHash, Off.Run.SinkHash) << What;
  EXPECT_EQ(On.Graph, Off.Graph) << What << ": Gcost depends on HotPathCaches";
  EXPECT_EQ(On.ClientGraphs, Off.ClientGraphs)
      << What << ": client graphs depend on HotPathCaches";
  EXPECT_EQ(On.Reports, Off.Reports)
      << What << ": client reports depend on HotPathCaches";
}

std::unique_ptr<Module> fuzzShape(uint64_t Seed) {
  RandomProgramOptions P;
  P.Seed = Seed;
  P.NumClasses = 3;
  P.NumFunctions = 6;
  P.OpsPerFunction = 45;
  P.NumGlobals = 3;
  P.Recursion = true;
  P.Aliasing = true;
  P.NullFlows = true;
  P.DeadStores = true;
  return generateRandomProgram(P);
}

TEST(FuzzRegressionTest, HotPathCachesAreObservationFree) {
  for (uint64_t Seed : {3u, 17u, 44u, 71u}) {
    for (uint32_t Slots : {1u, 16u}) {
      std::unique_ptr<Module> M = fuzzShape(Seed);
      expectSameArtifacts(runWithCaches(*M, /*Caches=*/true, Slots),
                          runWithCaches(*M, /*Caches=*/false, Slots),
                          "seed " + std::to_string(Seed) + " slots " +
                              std::to_string(Slots));
    }
  }
}

// Without thin slicing, loads and stores add a third (base-pointer) edge
// outside the memo; it must still be recorded identically.
TEST(FuzzRegressionTest, HotPathCachesAreObservationFreeWithoutThinSlicing) {
  for (uint64_t Seed : {3u, 44u}) {
    std::unique_ptr<Module> M = fuzzShape(Seed);
    expectSameArtifacts(runWithCaches(*M, true, 16, /*Thin=*/false),
                        runWithCaches(*M, false, 16, /*Thin=*/false),
                        "seed " + std::to_string(Seed) + " thin 0");
  }
}

// RandomProgram emits no unary ops, so this module covers onUn in every
// stage, next to array loads and stores whose value, index and null-ness
// change between iterations, and a close protocol for typestate.
constexpr const char *kUnaryArrayProgram = R"(class Box {
  v: int;
}

method Box.use(r0) regs 3 {
bb0:
  r1 = r0.Box::v
  r2 = neg r1
  r0.Box::v = r2
  ret
}

method Box.close(r0) regs 1 {
bb0:
  ret
}

func main() regs 24 {
bb0:
  r0 = iconst 8
  r1 = newarray int, r0
  r2 = iconst 4
  r3 = newarray ref, r2
  r4 = iconst 0
  r5 = iconst 1
  r6 = iconst 7
  r7 = iconst 3
  r8 = iconst 40
  goto bb1
bb1:
  if r4 < r8 goto bb2 else bb3
bb2:
  r9 = and r4, r6
  r10 = neg r4
  r11 = not r10
  r1[r9] = r11
  r12 = r1[r9]
  r13 = neg r12
  r1[r9] = r13
  r14 = len r1
  r15 = and r4, r7
  r16 = null
  r3[r15] = r16
  r17 = add r4, r5
  r18 = and r17, r7
  r19 = new Box
  r19.Box::v = r13
  r3[r18] = r19
  vcall use(r19)
  vcall close(r19)
  vcall use(r19)
  r20 = r3[r15]
  r21 = r3[r18]
  r22 = r21.Box::v
  ncall sink(r22)
  r4 = add r4, r5
  goto bb1
bb3:
  r23 = r1[r6]
  ncall sink(r23)
  ret
}
)";

TEST(FuzzRegressionTest, UnaryOpsAndArraysAreObservationFree) {
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = parseModule(kUnaryArrayProgram, Errors);
  ASSERT_TRUE(M) << (Errors.empty() ? "" : Errors[0]);
  for (bool Thin : {true, false}) {
    for (uint32_t Slots : {1u, 16u}) {
      Artifacts On = runWithCaches(*M, true, Slots, Thin);
      expectSameArtifacts(On, runWithCaches(*M, false, Slots, Thin),
                          "thin " + std::to_string(Thin) + " slots " +
                              std::to_string(Slots));
      EXPECT_EQ(On.Run.Status, RunStatus::Finished);
      EXPECT_NE(On.Reports.find("VIOLATION"), std::string::npos)
          << "the typestate client saw no events";
    }
  }
}

// Object ids restart with every run, so typestate's per-object state must
// too: a session run twice has to equal the fold of two single-run shards
// (it used to link the second run's first events to the first run's
// objects).
TEST(FuzzRegressionTest, ReusedTypestateSessionMatchesShardedFold) {
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = parseModule(kUnaryArrayProgram, Errors);
  ASSERT_TRUE(M) << (Errors.empty() ? "" : Errors[0]);
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::typestate();
  ProfileSession Seq(Cfg);
  Seq.run(*M);
  Seq.run(*M);
  ShardedSession Sh = runShardedSession(*M, 2, Cfg, 1);
  ASSERT_TRUE(Sh.Error.empty()) << Sh.Error;
  ASSERT_TRUE(Sh.Session);
  StringOutStream A, B;
  Seq.printClientReports(*M, A);
  Sh.Session->printClientReports(*M, B);
  EXPECT_EQ(A.str(), B.str());
  EXPECT_EQ(Seq.typestate()->eventEdges().size(),
            Sh.Session->typestate()->eventEdges().size());
}

} // namespace
