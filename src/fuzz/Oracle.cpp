//===- fuzz/Oracle.cpp - Differential execution-mode oracle ----------------===//

#include "fuzz/Oracle.h"

#include "analysis/CostModel.h"
#include "analysis/PassManager.h"
#include "ir/Module.h"
#include "ir/Verifier.h"
#include "profiling/GraphIO.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Natives.h"
#include "runtime/ThreadedEngine.h"
#include "support/OutStream.h"
#include "workloads/ParallelDriver.h"

using namespace lud;
using namespace lud::fuzz;

namespace {

std::string graphBytes(const DepGraph *G) {
  StringOutStream OS;
  if (G)
    writeGraph(FrozenGraph(*G), OS);
  return OS.str();
}

template <typename ProfilerT> const DepGraph *graphOf(const ProfilerT *P) {
  return P ? &P->graph() : nullptr;
}

std::string clientReports(const ProfileSession &S, const Module &M) {
  StringOutStream OS;
  S.printClientReports(M, OS);
  return OS.str();
}

/// Everything one mode produces that another mode must reproduce.
struct Snapshot {
  RunResult Run;
  std::string Graph;
  /// The copy, nullness and typestate graphs' serializations (empty for a
  /// client that did not run).
  std::string CopyGraph, NullnessGraph, TypestateGraph;
  std::string Reports;
};

Snapshot snapshot(const ProfileSession &S, const Module &M,
                  const RunResult &Run) {
  return {Run,
          graphBytes(graphOf(S.slicing())),
          graphBytes(graphOf(S.copy())),
          graphBytes(graphOf(S.nullness())),
          graphBytes(graphOf(S.typestate())),
          clientReports(S, M)};
}

/// Locates the first differing byte and shows both sides around it.
std::string firstDiff(const std::string &What, const std::string &Ref,
                      const std::string &Got) {
  size_t N = std::min(Ref.size(), Got.size());
  size_t At = 0;
  while (At != N && Ref[At] == Got[At])
    ++At;
  auto Excerpt = [&](const std::string &S) {
    size_t Lo = At > 24 ? At - 24 : 0;
    std::string E = S.substr(Lo, 48);
    for (char &C : E)
      if (C == '\n')
        C = ' ';
    return E;
  };
  std::string Out = What + " differs at byte " + std::to_string(At) +
                    " (sizes " + std::to_string(Ref.size()) + " vs " +
                    std::to_string(Got.size()) + ")";
  if (At != Ref.size() || At != Got.size())
    Out += "\n  reference: ..." + Excerpt(Ref) + "...\n  candidate: ..." +
           Excerpt(Got) + "...";
  return Out;
}

/// Compares the deterministic RunResult facts; timing fields are excluded.
std::string diffRuns(const RunResult &Ref, const RunResult &Got) {
  auto Field = [](const char *Name, uint64_t A, uint64_t B) -> std::string {
    if (A == B)
      return "";
    return std::string(Name) + " " + std::to_string(A) + " vs " +
           std::to_string(B);
  };
  if (Ref.Status != Got.Status)
    return "status " + std::to_string(int(Ref.Status)) + " vs " +
           std::to_string(int(Got.Status));
  for (std::string D :
       {Field("executed-instrs", Ref.ExecutedInstrs, Got.ExecutedInstrs),
        Field("calls", Ref.Calls, Got.Calls),
        Field("objects-allocated", Ref.ObjectsAllocated,
              Got.ObjectsAllocated),
        Field("peak-frame-depth", Ref.PeakFrameDepth, Got.PeakFrameDepth),
        Field("sink-hash", Ref.SinkHash, Got.SinkHash)})
    if (!D.empty())
      return D;
  return "";
}

std::string diffSnapshots(const Snapshot &Ref, const Snapshot &Got) {
  if (std::string D = diffRuns(Ref.Run, Got.Run); !D.empty())
    return D;
  if (Ref.Graph != Got.Graph)
    return firstDiff("Gcost serialization", Ref.Graph, Got.Graph);
  if (Ref.CopyGraph != Got.CopyGraph)
    return firstDiff("copy graph serialization", Ref.CopyGraph,
                     Got.CopyGraph);
  if (Ref.NullnessGraph != Got.NullnessGraph)
    return firstDiff("nullness graph serialization", Ref.NullnessGraph,
                     Got.NullnessGraph);
  if (Ref.TypestateGraph != Got.TypestateGraph)
    return firstDiff("typestate graph serialization", Ref.TypestateGraph,
                     Got.TypestateGraph);
  if (Ref.Reports != Got.Reports)
    return firstDiff("client reports", Ref.Reports, Got.Reports);
  return "";
}

SessionConfig sessionConfig(const OracleConfig &Cfg) {
  SessionConfig SC;
  SC.Engine = Cfg.Engine;
  SC.Instrument = true;
  SC.Clients = Cfg.Clients;
  SC.Slicing = Cfg.Slicing;
  SC.Run.MaxInstructions = Cfg.MaxInstructions;
  return SC;
}

} // namespace

OracleResult fuzz::runOracle(const Module &M, const OracleConfig &Cfg) {
  OracleResult Out;
  auto Fail = [&](const std::string &Mode, const std::string &Detail) {
    Out.Ok = false;
    Out.Mode = Mode;
    Out.Detail = Detail;
    return Out;
  };

  // Reference: one live session, recording its run manifest on the side so
  // the replay mode re-executes exactly this run.
  StringOutStream Sink;
  SessionConfig RefCfg = sessionConfig(Cfg);
  RefCfg.RecordSink = &Sink;
  ProfileSession Ref(RefCfg);
  TimedRun RefRun = Ref.run(M);
  if (!Ref.recordError().empty())
    return Fail("record", Ref.recordError());
  if (!RefRun.Error.empty())
    return Fail("clients", RefRun.Error);
  Snapshot RefSnap = snapshot(Ref, M, RefRun.Run);

  // Mode 1: hot-path caches flipped. The caches must be observation-free.
  {
    OracleConfig Flip = Cfg;
    Flip.Slicing.HotPathCaches = !Cfg.Slicing.HotPathCaches;
    ProfileSession S(sessionConfig(Flip));
    TimedRun R = S.run(M);
    if (std::string D = diffSnapshots(RefSnap, snapshot(S, M, R.Run));
        !D.empty())
      return Fail("caches-flip", D);
  }

  // Mode 2: the other execution engine. The threaded backend promises the
  // interpreter's exact hook stream, trap ordering and budget accounting,
  // so every artifact — run facts included — must be byte-identical.
  if (Cfg.CheckEngines) {
    EngineKind Other = Cfg.Engine == EngineKind::Threaded
                           ? EngineKind::Interp
                           : EngineKind::Threaded;
    SessionConfig SC = sessionConfig(Cfg);
    SC.Engine = Other;
    ProfileSession S(SC);
    TimedRun R = S.run(M);
    if (std::string D = diffSnapshots(RefSnap, snapshot(S, M, R.Run));
        !D.empty())
      return Fail(std::string("engines(") + engineKindName(Other) + ")", D);
  }

  // Mode 3: record -> replay. Re-executing the reference's manifest in a
  // fresh session must reproduce its record and identical profiler state.
  {
    ProfileSession S(sessionConfig(Cfg));
    ReplayRun R = S.replay(M, Sink.str());
    if (!R.Ok)
      return Fail("replay", R.Error);
    Snapshot Got = snapshot(S, M, RefSnap.Run); // replay has no RunResult
    if (std::string D = diffSnapshots(RefSnap, Got); !D.empty())
      return Fail("replay", D);
  }

  // Mode 4: sharded runs. For every shard count S the fold must equal one
  // session running the module S times sequentially, at any thread count.
  for (unsigned Shards : Cfg.ShardCounts) {
    ProfileSession Seq(sessionConfig(Cfg));
    TimedRun SeqRun{};
    for (unsigned I = 0; I != Shards; ++I)
      SeqRun = Seq.run(M);
    Snapshot SeqSnap = snapshot(Seq, M, SeqRun.Run);
    // A repeated run is deterministic, so the sequential reference's
    // last RunResult must itself match the single-run reference.
    if (std::string D = diffRuns(RefSnap.Run, SeqSnap.Run); !D.empty())
      return Fail("sequential-reuse(" + std::to_string(Shards) + ")", D);
    for (unsigned Threads : Cfg.ThreadCounts) {
      ShardedSession Sh =
          runShardedSession(M, Shards, sessionConfig(Cfg), Threads);
      std::string Mode = "sharded(" + std::to_string(Shards) +
                         ", threads=" + std::to_string(Threads) + ")";
      if (!Sh.Error.empty())
        return Fail(Mode, Sh.Error);
      if (!Sh.Session)
        return Fail(Mode, "sharded session missing");
      if (Sh.TotalInstrs != uint64_t(Shards) * RefSnap.Run.ExecutedInstrs)
        return Fail(Mode,
                    "total-instrs " + std::to_string(Sh.TotalInstrs) +
                        " != shards * " +
                        std::to_string(RefSnap.Run.ExecutedInstrs));
      Snapshot Got = snapshot(*Sh.Session, M, Sh.Run);
      if (std::string D = diffSnapshots(SeqSnap, Got); !D.empty())
        return Fail(Mode, D);
    }
  }

  // Mode 5: GraphIO round trip — parse the canonical serialization and
  // re-serialize; the bytes must be reproduced exactly.
  if (!RefSnap.Graph.empty()) {
    std::vector<std::string> Errors;
    std::unique_ptr<DepGraph> G = readGraph(RefSnap.Graph, Errors);
    if (!G) {
      std::string D = "readGraph rejected writeGraph output";
      for (const std::string &E : Errors)
        D += "\n  " + E;
      return Fail("graphio-roundtrip", D);
    }
    StringOutStream OS;
    writeGraph(FrozenGraph::seal(std::move(*G)), OS);
    if (OS.str() != RefSnap.Graph)
      return Fail("graphio-roundtrip",
                  firstDiff("re-serialized graph", RefSnap.Graph, OS.str()));
  }

  // Mode 6: hops. The chain-forest HRAB must equal the plain BFS on every
  // node of the reference graph, flags included.
  if (Ref.slicing()) {
    const FrozenGraph G(Ref.slicing()->graph());
    CostModel CM(G);
    for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
      BenefitInfo F = CM.hrab(N);
      BenefitInfo R = CM.hrabReference(N);
      if (F.Benefit != R.Benefit || F.ReachesPredicate != R.ReachesPredicate ||
          F.ReachesNative != R.ReachesNative)
        return Fail("hops", "node " + std::to_string(N) + ": forest " +
                                std::to_string(F.Benefit) + "/" +
                                std::to_string(F.ReachesPredicate) + "/" +
                                std::to_string(F.ReachesNative) +
                                ", reference " + std::to_string(R.Benefit) +
                                "/" + std::to_string(R.ReachesPredicate) +
                                "/" + std::to_string(R.ReachesNative));
    }
  }

  // Mode 7: the rewrite-pass pipeline. The pipeline promises that every
  // committed rewrite preserves the observable contract; re-check it from
  // the outside so a broken commit/rollback path (not just a broken pass)
  // is caught. The rewritten module must also still verify.
  if (Cfg.CheckOptimize) {
    opt::PipelineOptions PO;
    PO.Engine = Cfg.Engine;
    PO.Slicing = Cfg.Slicing;
    PO.Run.MaxInstructions = Cfg.MaxInstructions;
    opt::PassManager PM(PO);
    opt::PipelineResult PR = PM.run(M);
    if (PR.M) {
      std::vector<std::string> Errors;
      if (!verifyModule(*PR.M, Errors)) {
        std::string D = "rewritten module failed the verifier";
        for (const std::string &E : Errors)
          D += "\n  " + E;
        return Fail("optimize", D);
      }
      RunConfig RC;
      RC.MaxInstructions = Cfg.MaxInstructions;
      for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
        Heap HA, HB;
        ComposedProfiler<> PA, PB;
        RunResult A = runWithEngine(E, M, HA, PA, RC);
        RunResult B = runWithEngine(E, *PR.M, HB, PB, RC);
        std::string Mode = std::string("optimize(") + engineKindName(E) + ")";
        if (A.Status != B.Status)
          return Fail(Mode, "status " + std::to_string(int(A.Status)) +
                                " vs " + std::to_string(int(B.Status)));
        if (A.SinkHash != B.SinkHash)
          return Fail(Mode, "sink-hash " + std::to_string(A.SinkHash) +
                                " vs " + std::to_string(B.SinkHash));
        if (A.ReturnValue.Kind != B.ReturnValue.Kind ||
            valueBits(A.ReturnValue) != valueBits(B.ReturnValue))
          return Fail(Mode, "return value diverged");
      }
    }
  }

  return Out;
}

std::string fuzz::configFlags(const OracleConfig &Cfg) {
  std::string Out = "--slots=" + std::to_string(Cfg.Slicing.ContextSlots);
  Out += " --clients=" + clientSetName(Cfg.Clients);
  Out += " --thin-slicing=" + std::to_string(int(Cfg.Slicing.ThinSlicing));
  Out += " --context-sensitive=" +
         std::to_string(int(Cfg.Slicing.ContextSensitive));
  Out += " --hot-path-caches=" +
         std::to_string(int(Cfg.Slicing.HotPathCaches));
  Out += std::string(" --engine=") + engineKindName(Cfg.Engine);
  Out += " --engines=" + std::to_string(int(Cfg.CheckEngines));
  Out += " --optimize=" + std::to_string(int(Cfg.CheckOptimize));
  return Out;
}
