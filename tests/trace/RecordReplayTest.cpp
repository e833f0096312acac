//===- tests/trace/RecordReplayTest.cpp - Replay fidelity ------------------===//
//
// Pins the central invariant of record/replay: re-executing a run manifest
// yields a session byte-identical to the live one it was recorded from —
// canonical Gcost serialization and client reports alike — at any shard
// and thread count, for every run input the manifest carries; and the
// recorder stage itself is position-invariant in the pipeline.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "profiling/GraphIO.h"
#include "profiling/NullnessProfiler.h"
#include "profiling/SlicingProfiler.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Interpreter.h"
#include "support/OutStream.h"
#include "trace/TraceRecorder.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"
#include "workloads/ParallelDriver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

using namespace lud;

namespace {

constexpr ClientSet kAllClients = ClientSet::all();

std::string graphBytes(const DepGraph &G) {
  StringOutStream OS;
  writeGraph(FrozenGraph(G), OS);
  return OS.str();
}

std::string clientReports(const ProfileSession &S, const Module &M) {
  StringOutStream OS;
  S.printClientReports(M, OS);
  return OS.str();
}

TEST(RecordReplayTest, ReplayedSessionIsByteIdenticalToLive) {
  Workload W = buildWorkload("chart", 96);
  StringOutStream Sink;
  SessionConfig RecCfg;
  RecCfg.Clients = kAllClients;
  RecCfg.RecordSink = &Sink;
  ProfileSession Live(RecCfg);
  Live.run(*W.M);
  ASSERT_TRUE(Live.recordError().empty()) << Live.recordError();
  ASSERT_NE(Live.recorder(), nullptr);
  EXPECT_GT(Live.recorder()->events(), 0u);
  EXPECT_EQ(Live.recorder()->bytes(), Sink.str().size());

  SessionConfig RepCfg;
  RepCfg.Clients = kAllClients;
  ProfileSession Replayed(RepCfg);
  ReplayRun R = Replayed.replay(*W.M, Sink.str());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Events, Live.recorder()->events());
  EXPECT_EQ(R.Segments, 1u);

  // The headline acceptance check: canonical Gcost serialization and the
  // client report sections match byte for byte.
  EXPECT_EQ(graphBytes(Replayed.slicing()->graph()),
            graphBytes(Live.slicing()->graph()));
  EXPECT_EQ(clientReports(Replayed, *W.M), clientReports(Live, *W.M));
}

TEST(RecordReplayTest, BaselineRecordingReplaysIntoFullAnalyses) {
  // Record an uninstrumented run — the recorder alone in the pipeline —
  // then attach every analysis at replay time. The result must match a
  // fully instrumented live run: the trace captures the hook stream, not
  // any profiler's view of it.
  Workload W = buildWorkload("fop", 64);
  StringOutStream Sink;
  SessionConfig RecCfg;
  RecCfg.Instrument = false;
  RecCfg.RecordSink = &Sink;
  ProfileSession Baseline(RecCfg);
  Baseline.run(*W.M);
  ASSERT_TRUE(Baseline.recordError().empty());
  EXPECT_EQ(Baseline.slicing(), nullptr);

  SessionConfig LiveCfg;
  LiveCfg.Clients = kAllClients;
  ProfileSession Live(LiveCfg);
  Live.run(*W.M);

  ProfileSession Replayed(LiveCfg);
  ReplayRun R = Replayed.replay(*W.M, Sink.str());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(graphBytes(Replayed.slicing()->graph()),
            graphBytes(Live.slicing()->graph()));
  EXPECT_EQ(clientReports(Replayed, *W.M), clientReports(Live, *W.M));
}

TEST(RecordReplayTest, RepeatedRunsAppendSegmentsThatReplayAsOneSession) {
  Workload W = buildWorkload("fop", 32);
  StringOutStream Sink;
  SessionConfig RecCfg;
  RecCfg.Clients = ClientSet::nullness();
  RecCfg.RecordSink = &Sink;
  ProfileSession Live(RecCfg);
  Live.run(*W.M);
  Live.run(*W.M);

  SessionConfig RepCfg;
  RepCfg.Clients = ClientSet::nullness();
  ProfileSession Replayed(RepCfg);
  ReplayRun R = Replayed.replay(*W.M, Sink.str());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Segments, 2u);
  EXPECT_EQ(graphBytes(Replayed.slicing()->graph()),
            graphBytes(Live.slicing()->graph()));
  EXPECT_EQ(clientReports(Replayed, *W.M), clientReports(Live, *W.M));
}

/// The recorder's trace.* gauges, in a registry of their own so the text
/// does not depend on what else the session measured.
std::string traceGauges(const trace::TraceRecorder &R) {
  obs::MetricsRegistry Reg;
  R.accountStats(Reg);
  StringOutStream OS;
  Reg.writeText(OS);
  return OS.str();
}

TEST(RecordReplayTest, RecorderPositionDoesNotChangeTraceOrClients) {
  // Hooks receive identical arguments at every pipeline position, so the
  // recorder's counts must not depend on where it sits — and the live
  // stages must not notice it at all.
  Workload W = buildWorkload("fop", 64);
  const Module &M = *W.M;

  SlicingProfiler S0;
  NullnessProfiler N0;
  ComposedProfiler<SlicingProfiler, NullnessProfiler> P0(S0, N0);
  runModule(M, P0);
  const std::string RefGraph = graphBytes(S0.graph());
  const std::string RefNull = graphBytes(N0.graph());

  std::string A, B, C;
  {
    SlicingProfiler S;
    NullnessProfiler N;
    trace::TraceRecorder R;
    ComposedProfiler<trace::TraceRecorder, SlicingProfiler, NullnessProfiler>
        P(R, S, N);
    runModule(M, P);
    EXPECT_EQ(graphBytes(S.graph()), RefGraph);
    EXPECT_EQ(graphBytes(N.graph()), RefNull);
    EXPECT_GT(R.events(), 0u);
    EXPECT_EQ(R.runEvents(), R.events());
    A = traceGauges(R);
  }
  {
    SlicingProfiler S;
    NullnessProfiler N;
    trace::TraceRecorder R;
    ComposedProfiler<SlicingProfiler, trace::TraceRecorder, NullnessProfiler>
        P(S, R, N);
    runModule(M, P);
    EXPECT_EQ(graphBytes(S.graph()), RefGraph);
    EXPECT_EQ(graphBytes(N.graph()), RefNull);
    B = traceGauges(R);
  }
  {
    SlicingProfiler S;
    NullnessProfiler N;
    trace::TraceRecorder R;
    ComposedProfiler<SlicingProfiler, NullnessProfiler, trace::TraceRecorder>
        P(S, N, R);
    runModule(M, P);
    EXPECT_EQ(graphBytes(S.graph()), RefGraph);
    EXPECT_EQ(graphBytes(N.graph()), RefNull);
    C = traceGauges(R);
  }
  ASSERT_NE(A.find("trace.events.const"), std::string::npos) << A;
  EXPECT_EQ(A, B);
  EXPECT_EQ(A, C);
}

TEST(RecordReplayTest, ShardedReplayMatchesLiveAtAnyThreadCount) {
  Workload W = buildWorkload("eclipse", 64);
  const std::string Base = ::testing::TempDir() + "lud_rr_trace";
  for (unsigned Shards : {1u, 8u}) {
    SessionConfig Cfg;
    Cfg.Clients = kAllClients;

    SessionConfig RecCfg = Cfg;
    RecCfg.RecordPath = Base;
    ShardedSession Live = runShardedSession(*W.M, Shards, RecCfg, 4);
    ASSERT_TRUE(Live.Error.empty()) << Live.Error;
    ASSERT_TRUE(Live.Session);
    EXPECT_GT(Live.Events, 0u);
    const std::string LiveGraph = graphBytes(Live.Session->slicing()->graph());
    const std::string LiveReports = clientReports(*Live.Session, *W.M);

    std::vector<std::string> Paths;
    for (unsigned S = 0; S != Shards; ++S)
      Paths.push_back(shardTracePath(Base, S, Shards));

    for (unsigned Threads : {1u, 4u}) {
      ShardedSession Rep = replayShardedSession(*W.M, Paths, Cfg, Threads);
      ASSERT_TRUE(Rep.Error.empty()) << Rep.Error;
      ASSERT_TRUE(Rep.Session);
      EXPECT_EQ(Rep.Events, Live.Events);
      EXPECT_EQ(graphBytes(Rep.Session->slicing()->graph()), LiveGraph)
          << Shards << " shards, " << Threads << " threads";
      EXPECT_EQ(clientReports(*Rep.Session, *W.M), LiveReports);
    }
    for (const std::string &P : Paths)
      std::remove(P.c_str());
  }
}

TEST(RecordReplayTest, TelemetryCoversRecordAndReplay) {
  Workload W = buildWorkload("fop", 32);
  StringOutStream Sink;
  SessionConfig RecCfg;
  RecCfg.CollectStats = true;
  RecCfg.RecordSink = &Sink;
  ProfileSession Live(RecCfg);
  Live.run(*W.M);
  ASSERT_NE(Live.stats(), nullptr);
  StringOutStream Text;
  Live.stats()->writeText(Text);
  EXPECT_NE(Text.str().find("trace.events"), std::string::npos);
  EXPECT_NE(Text.str().find("trace.segments"), std::string::npos);
  // A manifest has no per-event bytes to attribute.
  EXPECT_EQ(Text.str().find("trace.bytes"), std::string::npos);
  EXPECT_EQ(Text.str().find("trace.compression_ppm"), std::string::npos);

  SessionConfig RepCfg;
  RepCfg.CollectStats = true;
  ProfileSession Replayed(RepCfg);
  ReplayRun R = Replayed.replay(*W.M, Sink.str());
  ASSERT_TRUE(R.Ok) << R.Error;
  StringOutStream RText;
  Replayed.stats()->writeText(RText);
  EXPECT_NE(RText.str().find("replay.events"), std::string::npos);
  EXPECT_NE(RText.str().find("replay.segments"), std::string::npos);
  // Re-execution is replay, not a run: no run.* counters, no recorder.
  EXPECT_EQ(RText.str().find("run.count"), std::string::npos);
  EXPECT_EQ(RText.str().find("trace.events"), std::string::npos);
}

TEST(RecordReplayTest, FileErrorsAreReported) {
  Workload W = buildWorkload("fop", 8);
  SessionConfig Cfg;
  ProfileSession S(Cfg);
  ReplayRun R = S.replayFile(*W.M, "/nonexistent/trace.bin");
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("cannot read"), std::string::npos);

  ShardedSession Sharded = replayShardedSession(
      *W.M, {std::string("/nonexistent/trace.bin")}, SessionConfig{}, 1);
  EXPECT_FALSE(Sharded.Error.empty());
  EXPECT_EQ(Sharded.Session, nullptr);
}

TEST(RecordReplayTest, UnwritableRecordPathIsSurfacedNotFatal) {
  Workload W = buildWorkload("fop", 8);
  SessionConfig Cfg;
  Cfg.RecordPath = "/nonexistent-dir/trace.bin";
  ProfileSession S(Cfg);
  TimedRun T = S.run(*W.M);
  // The run proceeds unrecorded; the error is available for the caller.
  EXPECT_GT(T.Run.ExecutedInstrs, 0u);
  EXPECT_NE(S.recordError().find("cannot write"), std::string::npos);
  EXPECT_EQ(S.recorder(), nullptr);
}

/// main() { r = input() + input(); print(r); sink(r); return r }
std::unique_ptr<Module> inputProgram() {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  Reg A = B.ncall("input", {});
  Reg C = B.ncall("input", {});
  Reg S = B.add(A, C);
  B.ncallVoid("print", {S});
  B.ncallVoid("sink", {S});
  B.ret(S);
  B.endFunction();
  M->finalize();
  return M;
}

TEST(RecordReplayTest, InputTapeIsRecordedAndReplayed) {
  std::unique_ptr<Module> M = inputProgram();
  std::vector<int64_t> Tape = {5, -7};
  StringOutStream Sink, Printed;
  SessionConfig RecCfg;
  RecCfg.Run.Input = &Tape;
  RecCfg.Run.PrintStream = &Printed;
  RecCfg.RecordSink = &Sink;
  ProfileSession Live(RecCfg);
  TimedRun Run = Live.run(*M);
  EXPECT_EQ(Run.Run.ReturnValue.asInt(), -2);
  EXPECT_EQ(Printed.str(), "-2\n");
  EXPECT_NE(Sink.str().find(" input=5,-7 "), std::string::npos)
      << Sink.str();

  // The replaying session has no tape and an output stream of its own:
  // re-execution reads the recorded tape, reproduces the sink hash (the
  // record check would fail otherwise), and prints nothing.
  StringOutStream ReplayPrinted;
  SessionConfig RepCfg;
  RepCfg.Run.PrintStream = &ReplayPrinted;
  ProfileSession Replayed(RepCfg);
  ReplayRun R = Replayed.replay(*M, Sink.str());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(ReplayPrinted.str(), "");
  EXPECT_EQ(graphBytes(Replayed.slicing()->graph()),
            graphBytes(Live.slicing()->graph()));

  // A different tape is a different run: the sink hash diverges.
  std::string Edited = Sink.str();
  Edited.replace(Edited.find("input=5,-7"), 10, "input=5,-6");
  ProfileSession Other{SessionConfig{}};
  R = Other.replay(*M, Edited);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("re-execution diverged from the record: sink"),
            std::string::npos)
      << R.Error;
}

TEST(RecordReplayTest, BudgetExceededRunReplaysToSameStatus) {
  Workload W = buildWorkload("fop", 32);
  const uint64_t Budget =
      ProfileSession{SessionConfig{}}.run(*W.M).Run.ExecutedInstrs / 2;
  StringOutStream Sink;
  SessionConfig RecCfg;
  RecCfg.Clients = kAllClients;
  RecCfg.Run.MaxInstructions = Budget;
  RecCfg.RecordSink = &Sink;
  ProfileSession Live(RecCfg);
  TimedRun Run = Live.run(*W.M);
  ASSERT_EQ(Run.Run.Status, RunStatus::BudgetExceeded);
  EXPECT_EQ(Run.Run.ExecutedInstrs, Budget);
  EXPECT_NE(Sink.str().find(" status=budget-exceeded instructions=" +
                            std::to_string(Budget) + " "),
            std::string::npos)
      << Sink.str();

  // The replaying session's own budget is irrelevant: the record's holds.
  SessionConfig RepCfg;
  RepCfg.Clients = kAllClients;
  ProfileSession Replayed(RepCfg);
  ReplayRun R = Replayed.replay(*W.M, Sink.str());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Events, Live.recorder()->events());
  EXPECT_EQ(graphBytes(Replayed.slicing()->graph()),
            graphBytes(Live.slicing()->graph()));
  EXPECT_EQ(clientReports(Replayed, *W.M), clientReports(Live, *W.M));
}

TEST(RecordReplayTest, FabricatedRecordCannotOutrunItsInstructionCount) {
  // A record claiming a finished run of 100 instructions re-executes at
  // most 101, whatever its budget field says, and the divergence is
  // diagnosed.
  Workload W = buildWorkload("fop", 32);
  StringOutStream Sink;
  SessionConfig RecCfg;
  RecCfg.RecordSink = &Sink;
  ProfileSession Live(RecCfg);
  TimedRun Run = Live.run(*W.M);
  ASSERT_EQ(Run.Run.Status, RunStatus::Finished);
  std::string Forged = Sink.str();
  std::string Count = " instructions=" + std::to_string(Run.Run.ExecutedInstrs);
  Forged.replace(Forged.find(Count), Count.size(), " instructions=100");

  ProfileSession Replayed{SessionConfig{}};
  ReplayRun R = Replayed.replay(*W.M, Forged);
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Error.find("line 1: re-execution diverged from the record: "
                         "status budget-exceeded, recorded finished"),
            std::string::npos)
      << R.Error;
}

/// main() { phase(1); r = neg 7; a = newarray int, 2; return a[5] }: a
/// phase marker, a unary op, then an out-of-bounds trap.
std::unique_ptr<Module> phaseUnTrapProgram() {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  B.ncallVoid("phase", {B.iconst(1)});
  Reg N = B.un(UnOp::Neg, B.iconst(7));
  B.ncallVoid("sink", {N});
  Reg A = B.allocArray(TypeKind::Int, B.iconst(2));
  B.ret(B.loadElem(A, B.iconst(5)));
  B.endFunction();
  M->finalize();
  return M;
}

/// The recorder's trace.events.<Hook> gauge in \p S's stats (0 if unset).
uint64_t hookEvents(const ProfileSession &S, const std::string &Hook) {
  obs::MetricId Id = S.stats()->find("trace.events." + Hook);
  return Id == obs::kNoMetric ? 0 : S.stats()->value(Id);
}

TEST(RecordReplayTest, PhaseUnaryAndTrapHooksReplay) {
  std::unique_ptr<Module> M = phaseUnTrapProgram();
  StringOutStream Sink;
  SessionConfig RecCfg;
  RecCfg.Clients = kAllClients;
  RecCfg.CollectStats = true;
  RecCfg.RecordSink = &Sink;
  ProfileSession Live(RecCfg);
  TimedRun Run = Live.run(*M);
  ASSERT_EQ(Run.Run.Status, RunStatus::Trapped);
  EXPECT_EQ(Run.Run.Trap, TrapKind::OutOfBounds);

  // Replaying into a recording session re-records the run: the manifest
  // comes back byte for byte (status and sink hash included), and the
  // replaying recorder saw the same phase, unary and trap hooks.
  StringOutStream ReSink;
  SessionConfig RepCfg = RecCfg;
  RepCfg.RecordSink = &ReSink;
  ProfileSession Replayed(RepCfg);
  ReplayRun R = Replayed.replay(*M, Sink.str());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(ReSink.str(), Sink.str());
  EXPECT_NE(Sink.str().find(" status=trapped "), std::string::npos)
      << Sink.str();
  for (const char *Hook : {"phase", "un", "trap"}) {
    EXPECT_GT(hookEvents(Live, Hook), 0u) << Hook;
    EXPECT_EQ(hookEvents(Replayed, Hook), hookEvents(Live, Hook)) << Hook;
  }
  EXPECT_EQ(graphBytes(Replayed.slicing()->graph()),
            graphBytes(Live.slicing()->graph()));
  EXPECT_EQ(clientReports(Replayed, *M), clientReports(Live, *M));
}

/// What a recording session counted: its trace.* gauges and its manifest
/// (whose events= field is the per-run total).
struct Counted {
  std::string Gauges, Manifest;
  bool operator==(const Counted &) const = default;
};

/// Runs \p M once (or, given \p Replay, re-executes that manifest) in a
/// recording session on \p E: without the substrate the pipeline is the
/// recorder alone (a capture), with it the recorder ahead of the substrate.
Counted countShape(const Module &M, EngineKind E, bool Instrument,
                   ClientSet Clients, const RunConfig &RC,
                   const std::string *Replay = nullptr) {
  StringOutStream Sink;
  SessionConfig Cfg;
  Cfg.Engine = E;
  Cfg.Instrument = Instrument;
  Cfg.Clients = Clients;
  Cfg.Run = RC;
  Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  if (Replay) {
    ReplayRun R = S.replay(M, *Replay);
    EXPECT_TRUE(R.Ok) << R.Error;
  } else {
    S.run(M);
  }
  return {traceGauges(*S.recorder()), Sink.str()};
}

/// The counts of \p M's run under \p RC, checked to be the same in every
/// recording shape — capture, recorded profile (with and without
/// clients), and a replay of the capture into a capture and into a
/// profile — on both engines.
Counted countsInEveryShape(const Module &M, const RunConfig &RC) {
  Counted Ref = countShape(M, EngineKind::Interp, false, {}, RC);
  for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
    const std::string Where = engineKindName(E);
    EXPECT_EQ(countShape(M, E, false, {}, RC), Ref) << Where << " capture";
    EXPECT_EQ(countShape(M, E, true, {}, RC), Ref) << Where << " profile";
    EXPECT_EQ(countShape(M, E, true, kAllClients, RC), Ref)
        << Where << " profile with clients";
    EXPECT_EQ(countShape(M, E, false, {}, RC, &Ref.Manifest), Ref)
        << Where << " replay into a capture";
    EXPECT_EQ(countShape(M, E, true, {}, RC, &Ref.Manifest), Ref)
        << Where << " replay into a profile";
  }
  return Ref;
}

/// The value of gauge \p Name in traceGauges() text (0 when absent).
uint64_t gaugeIn(const std::string &Text, const std::string &Name) {
  size_t At = Text.find("  " + Name + " ");
  if (At == std::string::npos)
    return 0;
  At = Text.find_first_not_of(' ', At + 2 + Name.size());
  return std::stoull(Text.substr(At));
}

TEST(RecordReplayTest, CountsAgreeAcrossShapesWhenATrapFollowsAPhase) {
  std::unique_ptr<Module> M = phaseUnTrapProgram();
  Counted C = countsInEveryShape(*M, RunConfig{});
  EXPECT_NE(C.Manifest.find(" status=trapped "), std::string::npos)
      << C.Manifest;
  // Phase 0: the entry frame, const 1 and the phase marker itself. Phase
  // 1: const 7, neg, sink, const 2, newarray, const 5 and the trap.
  EXPECT_EQ(gaugeIn(C.Gauges, "trace.phase.0.events"), 3u) << C.Gauges;
  EXPECT_EQ(gaugeIn(C.Gauges, "trace.phase.1.events"), 7u) << C.Gauges;
  EXPECT_EQ(gaugeIn(C.Gauges, "trace.events"), 10u) << C.Gauges;
  EXPECT_NE(C.Manifest.find(" events=10\n"), std::string::npos)
      << C.Manifest;
}

TEST(RecordReplayTest, CountsAgreeAcrossShapesWhenTheBudgetStopsARun) {
  Workload W = buildWorkload("eclipse", 48);
  RunConfig Full;
  Counted All = countsInEveryShape(*W.M, Full);
  RunConfig Half;
  Half.MaxInstructions =
      ProfileSession{SessionConfig::baseline()}.run(*W.M).Run.ExecutedInstrs /
      2;
  Counted Cut = countsInEveryShape(*W.M, Half);
  EXPECT_NE(Cut.Manifest.find(" status=budget-exceeded "), std::string::npos)
      << Cut.Manifest;
  // The cut run stops inside phase 1: phase 0 is whole, phase 1 partial,
  // phase 2 never starts.
  for (const char *G : {"trace.phase.0.events", "trace.events.const"})
    EXPECT_GT(gaugeIn(Cut.Gauges, G), 0u) << G;
  EXPECT_EQ(gaugeIn(Cut.Gauges, "trace.phase.0.events"),
            gaugeIn(All.Gauges, "trace.phase.0.events"));
  EXPECT_GT(gaugeIn(Cut.Gauges, "trace.phase.1.events"), 0u);
  EXPECT_LT(gaugeIn(Cut.Gauges, "trace.phase.1.events"),
            gaugeIn(All.Gauges, "trace.phase.1.events"));
  EXPECT_EQ(gaugeIn(Cut.Gauges, "trace.phase.2.events"), 0u);
  EXPECT_GT(gaugeIn(All.Gauges, "trace.phase.2.events"), 0u);
  EXPECT_EQ(gaugeIn(Cut.Gauges, "trace.phase.0.events") +
                gaugeIn(Cut.Gauges, "trace.phase.1.events"),
            gaugeIn(Cut.Gauges, "trace.events"));
}

// A newarray length above UINT32_MAX traps OutOfBounds — like a negative
// length — identically on both engines, and the trapping run records and
// replays to the same status on either.
TEST(RecordReplayTest, OversizedArrayLengthTrapsAndReplays) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg A = B.allocArray(TypeKind::Int, B.iconst(4294967301));
  B.ret(B.arrayLen(A));
  B.endFunction();
  M.finalize();

  std::string Manifests[2];
  for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
    StringOutStream Sink;
    SessionConfig RecCfg;
    RecCfg.Engine = E;
    RecCfg.RecordSink = &Sink;
    ProfileSession Live(RecCfg);
    TimedRun Run = Live.run(M);
    EXPECT_EQ(Run.Run.Status, RunStatus::Trapped) << engineKindName(E);
    EXPECT_EQ(Run.Run.Trap, TrapKind::OutOfBounds) << engineKindName(E);
    Manifests[E == EngineKind::Threaded] = Sink.str();

    for (EngineKind RE : {EngineKind::Interp, EngineKind::Threaded}) {
      SessionConfig RepCfg;
      RepCfg.Engine = RE;
      ProfileSession Replayed(RepCfg);
      ReplayRun R = Replayed.replay(M, Sink.str());
      EXPECT_TRUE(R.Ok) << engineKindName(E) << " -> " << engineKindName(RE)
                        << ": " << R.Error;
    }
  }
  EXPECT_EQ(Manifests[0], Manifests[1]);
  EXPECT_NE(Manifests[0].find(" status=trapped "), std::string::npos)
      << Manifests[0];
}

} // namespace
