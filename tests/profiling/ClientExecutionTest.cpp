//===- tests/profiling/ClientExecutionTest.cpp - Clients beside the substrate //
//
// A profiling session with clients executes the module beside the
// substrate's execution on the calling thread: the copy, nullness and
// typestate clients run behind their own TagEnv as two executions
// ({copy, typestate} and {nullness}) on threads of their own when the
// process has two spare cores, as one on one thread when it has one, else
// as one after the substrate on the same thread. The contract pinned here,
// for every placement: every
// client artifact — graph bytes, copy chains with their stack hops,
// typestate violations and event edges, the null trace — and the substrate's
// Gcost equal what one ComposedProfiler<SlicingProfiler, CopyProfiler,
// NullnessProfiler, TypestateProfiler> pass produces. It must hold on every
// analogue, the composed tier and a trapping program; on both engines; with
// a tracked phase gated off (untagged objects); and at 1 and 16 context
// slots (the tag codec).
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "ir/IRBuilder.h"
#include "profiling/GraphIO.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/ThreadedEngine.h"
#include "support/OutStream.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"
#include "workloads/ParallelDriver.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

using namespace lud;

namespace {

std::string graphBytes(const DepGraph &G) {
  StringOutStream OS;
  writeGraph(FrozenGraph(G), OS);
  return OS.str();
}

/// Everything a client run leaves behind, in comparable form.
struct ClientArtifacts {
  std::string Gcost, CopyGraph, NullGraph, TypeGraph;
  std::string Chains, Violations, Events, NullTraceText;

  ClientArtifacts(const SlicingProfiler &Sub, const CopyProfiler &Copy,
                  const NullnessProfiler &Null, const TypestateProfiler &Type)
      : Gcost(graphBytes(Sub.graph())), CopyGraph(graphBytes(Copy.graph())),
        NullGraph(graphBytes(Null.graph())),
        TypeGraph(graphBytes(Type.graph())) {
    auto Loc = [](const HeapLoc &L) {
      return std::to_string(L.Tag) + "." + std::to_string(L.Slot);
    };
    const FrozenGraph CopySealed(Copy.graph());
    for (const CopyProfiler::CopyChain &C : Copy.chains()) {
      Chains += Loc(C.From) + " -> " + Loc(C.To) + " x" +
                std::to_string(C.Count) + " via";
      for (InstrId I : CopyProfiler::stackHops(CopySealed, C))
        Chains += " " + std::to_string(I);
      Chains += "\n";
    }
    for (const TypestateViolation &V : Type.violations())
      Violations += std::to_string(V.Instr) + " " + std::to_string(V.Site) +
                    " s" + std::to_string(V.StateBefore) + " m" +
                    std::to_string(V.Method) + "\n";
    for (const TypestateProfiler::EventEdge &E : Type.eventEdges())
      Events += std::to_string(E.From) + " -> " + std::to_string(E.To) +
                " m" + std::to_string(E.Method) + "\n";
    NullTrace T = traceNullOrigin(Null);
    NullTraceText = std::to_string(T.Origin) + ":";
    for (InstrId I : T.Flow)
      NullTraceText += " " + std::to_string(I);
  }
};

void expectSame(const ClientArtifacts &Want, const ClientArtifacts &Got,
                const std::string &What) {
  EXPECT_EQ(Want.Gcost, Got.Gcost) << What;
  EXPECT_EQ(Want.CopyGraph, Got.CopyGraph) << What;
  EXPECT_EQ(Want.NullGraph, Got.NullGraph) << What;
  EXPECT_EQ(Want.TypeGraph, Got.TypeGraph) << What;
  EXPECT_EQ(Want.Chains, Got.Chains) << What;
  EXPECT_EQ(Want.Violations, Got.Violations) << What;
  EXPECT_EQ(Want.Events, Got.Events) << What;
  EXPECT_EQ(Want.NullTraceText, Got.NullTraceText) << What;
}

/// The session's artifacts against one composed pass over \p M, on both
/// engines, under the default configuration, one context slot, and with
/// phase 0 (every analogue's startup) gated off; the session runs once in
/// every placement this process's cores reach.
void expectSessionMatchesOnePass(const Module &M, const std::string &Name) {
  SlicingConfig OneSlot;
  OneSlot.ContextSlots = 1;
  SlicingConfig Gated;
  Gated.TrackedPhaseMask = ~uint64_t(1);
  const std::pair<const char *, SlicingConfig> Configs[] = {
      {"slots=16", SlicingConfig{}},
      {"slots=1", OneSlot},
      {"phase0-off", Gated}};
  TypestateSpec Spec = lifecycleSpec(M);
  for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
    for (const auto &[CfgName, SC] : Configs) {
      std::string What = Name + " / " + engineKindName(E) + " / " + CfgName;

      SlicingProfiler Sub(SC);
      CopyProfiler Copy(SC);
      NullnessProfiler Null(SC.HotPathCaches);
      TypestateProfiler Type(Spec, SC);
      ComposedProfiler<SlicingProfiler, CopyProfiler, NullnessProfiler,
                       TypestateProfiler>
          Pipe(Sub, Copy, Null, Type);
      Heap H;
      RunResult Ref = runWithEngine(E, M, H, Pipe, RunConfig{});

      for (test::Placement P : test::kPlacements) {
        std::string Where = What + " / " + test::placementName(P);
        SessionConfig Cfg;
        Cfg.Engine = E;
        Cfg.Clients = ClientSet::all();
        Cfg.Slicing = SC;
        ProfileSession S(Cfg);
        test::PlaceClients Held(P);
        RunResult Got = S.run(M).Run;

        EXPECT_EQ(Ref.Status, Got.Status) << Where;
        EXPECT_EQ(Ref.ExecutedInstrs, Got.ExecutedInstrs) << Where;
        EXPECT_EQ(Ref.SinkHash, Got.SinkHash) << Where;
        expectSame(ClientArtifacts(Sub, Copy, Null, Type),
                   ClientArtifacts(*S.slicing(), *S.copy(), *S.nullness(),
                                   *S.typestate()),
                   Where);
      }
    }
  }
}

TEST(ClientExecutionEquivalenceTest, AnaloguesMatchOnePass) {
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 30);
    expectSessionMatchesOnePass(*W.M, Name);
  }
}

TEST(ClientExecutionEquivalenceTest, ComposedTierMatchesOnePass) {
  Workload W = buildComposedWorkload(40);
  expectSessionMatchesOnePass(*W.M, "composed");
}

TEST(ClientExecutionEquivalenceTest, TrappingProgramMatchesOnePass) {
  // A closable class used after close (a lifecycle violation), a copy
  // chain through a static, then a null dereference that ends the run.
  Module M;
  ClassDecl *File = M.addClass("File");
  File->addField("pos", Type::makeInt());
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  A->addField("next", Type::makeRef());
  GlobalId G = M.addGlobal("g", Type::makeInt());
  IRBuilder B(M);
  for (const char *Name : {"read", "close"}) {
    B.beginMethod(File->getId(), Name, 1);
    Reg Pos = B.loadField(0, File->getId(), "pos");
    B.ret(Pos);
    B.endFunction();
  }
  B.beginFunction("main", 0);
  Reg F = B.alloc(File->getId());
  B.vcallVoid("read", {F});
  B.vcallVoid("close", {F});
  B.vcallVoid("read", {F});
  Reg O1 = B.alloc(A->getId());
  B.storeField(O1, A->getId(), "f", B.iconst(7));
  Reg L = B.loadField(O1, A->getId(), "f");
  B.storeStatic(G, L);
  Reg O2 = B.alloc(A->getId());
  B.storeField(O2, A->getId(), "f", B.loadStatic(G));
  B.storeField(O2, A->getId(), "next", B.nullconst());
  Reg Next = B.loadField(O2, A->getId(), "next");
  Reg X = B.loadField(Next, A->getId(), "f");
  B.ret(X);
  B.endFunction();
  M.finalize();

  ProfileSession Probe([] {
    SessionConfig Cfg;
    Cfg.Clients = ClientSet::all();
    return Cfg;
  }());
  RunResult R = Probe.run(M).Run;
  ASSERT_EQ(R.Status, RunStatus::Trapped);
  ASSERT_EQ(R.Trap, TrapKind::NullDeref);
  ASSERT_FALSE(Probe.typestate()->violations().empty());
  ASSERT_TRUE(traceNullOrigin(*Probe.nullness()).found());
  expectSessionMatchesOnePass(M, "trap");
}

TEST(ClientExecutionPlacementTest, SpareCoreDecidesWhereClientsRun) {
  // With two spare cores the clients run as two executions on threads of
  // their own, with one as one execution on one thread, and when the
  // callers' threads hold every core — the session's own run counts as
  // one — as one execution on the calling thread after the substrate.
  // phase.clients times them in every placement and counts one span per
  // run whatever the placement; the split placement alone adds
  // phase.clients.split_nanos, the inline one alone
  // phase.clients.inline_nanos.
  Workload W = buildWorkload("chart", 30);
  unsigned Before = CoreBudget::process().busy();
  for (test::Placement P : test::kPlacements) {
    SessionConfig Cfg;
    Cfg.Clients = ClientSet::all();
    Cfg.CollectStats = true;
    ProfileSession S(Cfg);
    {
      test::PlaceClients Held(P);
      EXPECT_TRUE(S.run(*W.M).Error.empty());
    }
    const obs::MetricsRegistry &R = *S.stats();
    obs::MetricId Spans = R.find("phase.clients.spans");
    ASSERT_NE(Spans, obs::kNoMetric);
    EXPECT_EQ(R.value(Spans), 1u) << test::placementName(P);
    obs::MetricId Nanos = R.find("phase.clients.nanos");
    ASSERT_NE(Nanos, obs::kNoMetric);
    for (auto [Name, Where] :
         {std::pair{"phase.clients.split_nanos", test::Placement::Split},
          std::pair{"phase.clients.inline_nanos", test::Placement::Inline}}) {
      obs::MetricId Id = R.find(Name);
      EXPECT_EQ(Id != obs::kNoMetric, P == Where)
          << Name << ", " << test::placementName(P);
      if (Id != obs::kNoMetric) {
        EXPECT_EQ(R.value(Id), R.value(Nanos)) << Name;
      }
    }
    // Every hold a session took is released when its run returns.
    EXPECT_EQ(CoreBudget::process().busy(), Before);
  }
}

TEST(ClientExecutionPlacementTest, OneClientGroupIsOneExecution) {
  // A split needs both halves: a session with the nullness client alone,
  // or without it, runs one execution on one thread even with spare cores
  // to split on.
  Workload W = buildWorkload("chart", 30);
  for (ClientSet Clients : {ClientSet::nullness(), ClientSet::copy()}) {
    SessionConfig Cfg;
    Cfg.Clients = Clients;
    Cfg.CollectStats = true;
    ProfileSession S(Cfg);
    {
      test::PlaceClients Held(test::Placement::Split);
      EXPECT_TRUE(S.run(*W.M).Error.empty());
    }
    const obs::MetricsRegistry &R = *S.stats();
    EXPECT_EQ(R.value(R.find("phase.clients.spans")), 1u);
    EXPECT_EQ(R.find("phase.clients.split_nanos"), obs::kNoMetric);
    EXPECT_EQ(R.find("phase.clients.inline_nanos"), obs::kNoMetric);
  }
}

TEST(ClientExecutionPlacementTest, BatchCoveringTheCoresRunsClientsInline) {
  // A sharded batch holds one core per worker thread before any shard
  // starts. With a worker per core every shard runs its clients inline;
  // with a core left over, every shard gives them a thread; a shard splits
  // them over two threads only while the free cores cover two for every
  // worker (one worker on three or more cores), so a half-saturated batch
  // does not oversubscribe the cores. The process pretends to have
  // test::kPlacementCores cores, so every case runs on any machine.
  CoreBudget::Override Budget(test::kPlacementCores);
  const unsigned Cores = test::kPlacementCores;
  Workload W = buildWorkload("chart", 30);
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  Cfg.CollectStats = true;
  for (unsigned Threads : {1u, Cores / 2, Cores - 1, Cores}) {
    ShardedSession S = runShardedSession(*W.M, 2 * Cores, Cfg, Threads);
    ASSERT_TRUE(S.Error.empty()) << S.Error;
    const obs::MetricsRegistry &R = *S.Session->stats();
    obs::MetricId Nanos = R.find("phase.clients.nanos");
    obs::MetricId Split = R.find("phase.clients.split_nanos");
    obs::MetricId Inline = R.find("phase.clients.inline_nanos");
    ASSERT_NE(Nanos, obs::kNoMetric);
    EXPECT_EQ(R.value(R.find("phase.clients.spans")), 2 * Cores)
        << Threads << " threads";
    if (Cores - Threads >= 2 * Threads) {
      ASSERT_NE(Split, obs::kNoMetric) << Threads << " threads";
      EXPECT_EQ(R.value(Split), R.value(Nanos));
    } else {
      EXPECT_EQ(Split, obs::kNoMetric) << Threads << " threads";
    }
    if (Threads < Cores) {
      EXPECT_EQ(Inline, obs::kNoMetric) << Threads << " threads";
    } else {
      ASSERT_NE(Inline, obs::kNoMetric) << Threads << " threads";
      EXPECT_EQ(R.value(Inline), R.value(Nanos));
    }
    // The batch's and the sessions' holds are released.
    EXPECT_EQ(CoreBudget::process().busy(), 0u);
  }
}

} // namespace
