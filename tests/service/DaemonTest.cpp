//===- tests/service/DaemonTest.cpp - End-to-end daemon tests -------------===//
//
// The lud-serve daemon over real sockets: streamed ingest sessions whose
// folded GET /report is byte-identical to the offline renderer over the
// same manifests (at 1 and 4 worker threads, with interleaved frames),
// per-session failure isolation with verbatim
// diagnostics on the wire, the telemetry endpoints, the optimizer section
// and metrics under --optimize, and clean shutdown.
//
//===----------------------------------------------------------------------===//

#include "analysis/PassManager.h"
#include "profiling/FrozenGraph.h"
#include "service/Client.h"
#include "service/Daemon.h"
#include "support/OutStream.h"
#include "trace/RunManifest.h"
#include "workloads/DaCapo.h"
#include "workloads/Render.h"

#include <gtest/gtest.h>

#include <string>
#include <unistd.h>
#include <vector>

using namespace lud;
using namespace lud::serve;

namespace {

SessionConfig allClientsConfig() {
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  return Cfg;
}

std::string recordTrace(const Module &M, unsigned Runs = 1) {
  StringOutStream Sink;
  SessionConfig Cfg = allClientsConfig();
  Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  for (unsigned I = 0; I != Runs; ++I)
    S.run(M);
  return Sink.str();
}

/// One FEED frame per manifest record.
std::vector<std::string> recordFrames(const std::string &Manifest) {
  std::vector<std::string> Frames;
  for (std::string_view Line : trace::splitRecords(Manifest))
    Frames.push_back(std::string(Line) + "\n");
  return Frames;
}

/// A unique-per-test unix socket path under /tmp.
std::string socketPath(const char *Tag) {
  return "/tmp/lud-daemon-test-" + std::to_string(::getpid()) + "-" + Tag +
         ".sock";
}

ReportSpec fullSpec() {
  ReportSpec Spec;
  Spec.Report = true;
  Spec.Dead = true;
  Spec.Caches = true;
  return Spec;
}

/// What GET /report must serve: the sequential replay of \p Traces
/// rendered through the shared renderer — lud-replay's output.
std::string offlineReport(const Module &M,
                          const std::vector<std::string> &Traces,
                          const ReportSpec &Spec) {
  ProfileSession S(allClientsConfig());
  uint64_t Events = 0;
  for (const std::string &T : Traces) {
    ReplayRun R = S.replay(M, T);
    EXPECT_TRUE(R.Ok) << R.Error;
    Events += R.Events;
  }
  FrozenGraph FG(S.slicing()->graph());
  if (S.stats())
    FG.accountStats(*S.stats());
  StringOutStream OS;
  renderReplayReport(M, S, FG, Events, Traces.size(), Spec, OS);
  return OS.str();
}

DaemonConfig daemonConfig(const std::string &Socket, unsigned Workers) {
  DaemonConfig Cfg;
  Cfg.SocketPath = Socket;
  Cfg.HttpPort = 0; // Pick a free port.
  Cfg.Workers = Workers;
  Cfg.Base = allClientsConfig();
  Cfg.Spec = fullSpec();
  return Cfg;
}

// End to end: N interleaved streamed sessions, fetched over HTTP,
// byte-identical to the offline sequential replay — at worker counts 1
// and 4.
TEST(DaemonTest, InterleavedSessionsReportMatchesOfflineReplay) {
  Workload W = buildWorkload("fop", 50);
  std::vector<std::string> Traces = {recordTrace(*W.M, 3),
                                     recordTrace(*W.M, 2),
                                     recordTrace(*W.M, 1)};
  std::string Want = offlineReport(*W.M, Traces, fullSpec());

  for (unsigned Workers : {1u, 4u}) {
    std::string Socket =
        socketPath(Workers == 1 ? "interleave1" : "interleave4");
    Daemon D(*W.M, daemonConfig(Socket, Workers));
    std::string Err;
    ASSERT_TRUE(D.start(Err)) << Err;

    // One connection per manifest; one-record frames round-robin across
    // the connections so the daemon sees them interleaved.
    std::vector<ServeClient> Clients(Traces.size());
    std::vector<std::vector<std::string>> Frames(Traces.size());
    for (size_t I = 0; I != Traces.size(); ++I) {
      Frames[I] = recordFrames(Traces[I]);
      ASSERT_TRUE(Clients[I].connect(Socket, Err)) << Err;
      ASSERT_TRUE(Clients[I].open(Err)) << Err;
      EXPECT_EQ(Clients[I].id(), I + 1);
    }
    for (size_t Round = 0, More = 1; More; ++Round) {
      More = 0;
      for (size_t I = 0; I != Clients.size(); ++I) {
        if (Round >= Frames[I].size())
          continue;
        More = 1;
        ASSERT_TRUE(Clients[I].feed(Frames[I][Round], Err)) << Err;
      }
    }
    for (size_t I = 0; I != Clients.size(); ++I) {
      ASSERT_TRUE(Clients[I].done(Err)) << Err;
      EXPECT_EQ(Clients[I].segments(), Frames[I].size());
      Clients[I].close();
    }

    std::string Body;
    ASSERT_TRUE(httpGet(D.httpPort(), "/report", Body, Err)) << Err;
    EXPECT_EQ(Body, Want) << "workers=" << Workers;

    // Serving the report is non-destructive: fetch it again.
    ASSERT_TRUE(httpGet(D.httpPort(), "/report", Body, Err)) << Err;
    EXPECT_EQ(Body, Want);
    D.stop();
  }
}

// A corrupt stream terminates only its own session; the ERR reply to its
// FEED carries the replay diagnostic verbatim, and the sibling session
// still serves the exact single-manifest report.
TEST(DaemonTest, CorruptSessionIsIsolatedWithVerbatimDiagnostic) {
  Workload W = buildWorkload("chart", 60);
  std::string Good = recordTrace(*W.M);
  std::string Bad = "not a lud.run.v1 manifest";

  std::string WantDiag;
  {
    ProfileSession Direct(allClientsConfig());
    ReplayRun R = Direct.replay(*W.M, Bad);
    ASSERT_FALSE(R.Ok);
    WantDiag = R.Error;
  }

  std::string Socket = socketPath("corrupt");
  Daemon D(*W.M, daemonConfig(Socket, 2));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  ServeClient CBad, CGood;
  ASSERT_TRUE(CBad.connect(Socket, Err)) << Err;
  ASSERT_TRUE(CBad.open(Err)) << Err;
  ASSERT_TRUE(CGood.connect(Socket, Err)) << Err;
  ASSERT_TRUE(CGood.open(Err)) << Err;

  // The FEED that carried the bad record fails, verbatim over the wire;
  // DONE repeats the diagnostic.
  EXPECT_FALSE(CBad.feed(Bad, Err));
  EXPECT_EQ(Err, WantDiag);
  EXPECT_FALSE(CBad.done(Err));
  EXPECT_EQ(Err, WantDiag);

  ASSERT_TRUE(CGood.feed(Good, Err)) << Err;
  ASSERT_TRUE(CGood.done(Err)) << Err;
  CBad.close();
  CGood.close();

  std::string Body;
  ASSERT_TRUE(httpGet(D.httpPort(), "/report", Body, Err)) << Err;
  EXPECT_EQ(Body, offlineReport(*W.M, {Good}, fullSpec()));

  // The roster shows the failed session with its diagnostic.
  ASSERT_TRUE(httpGet(D.httpPort(), "/sessions", Body, Err)) << Err;
  EXPECT_NE(Body.find("\"failed\""), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"closed\""), std::string::npos) << Body;
  D.stop();
}

TEST(DaemonTest, SessionsCanPickTheirOwnClientSet) {
  Workload W = buildWorkload("chart", 50);
  std::string Trace = recordTrace(*W.M);

  std::string Socket = socketPath("clients");
  Daemon D(*W.M, daemonConfig(Socket, 2));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  ServeClient C;
  ASSERT_TRUE(C.connect(Socket, Err)) << Err;
  ASSERT_TRUE(C.open(ClientSet::nullness(), Err)) << Err;
  SessionHandle *H = D.sessions().find(C.id());
  ASSERT_TRUE(H);
  EXPECT_EQ(H->clients(), ClientSet::nullness());
  ASSERT_TRUE(C.feed(Trace, Err)) << Err;
  ASSERT_TRUE(C.done(Err)) << Err;
  C.close();
  D.stop();
}

TEST(DaemonTest, TelemetryAndHealthEndpoints) {
  Workload W = buildWorkload("chart", 40);
  std::string Socket = socketPath("telemetry");
  Daemon D(*W.M, daemonConfig(Socket, 1));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;

  std::string Body;
  ASSERT_TRUE(httpGet(D.httpPort(), "/healthz", Body, Err)) << Err;
  EXPECT_EQ(Body, "ok\n");

  // No completed sessions yet: /report is a 404, not an empty report.
  EXPECT_FALSE(httpGet(D.httpPort(), "/report", Body, Err));

  std::string Trace = recordTrace(*W.M);
  ServeClient C;
  ASSERT_TRUE(C.connect(Socket, Err)) << Err;
  ASSERT_TRUE(C.open(Err)) << Err;
  ASSERT_TRUE(C.feed(Trace, Err)) << Err;
  ASSERT_TRUE(C.done(Err)) << Err;
  C.close();

  ASSERT_TRUE(httpGet(D.httpPort(), "/stats", Body, Err)) << Err;
  EXPECT_NE(Body.find("lud.stats.v1"), std::string::npos);
  EXPECT_NE(Body.find("serve.sessions_closed"), std::string::npos);
  EXPECT_NE(Body.find("serve.http_requests"), std::string::npos);

  ASSERT_TRUE(httpGet(D.httpPort(), "/sessions", Body, Err)) << Err;
  EXPECT_NE(Body.find("\"id\": 1"), std::string::npos) << Body;
  D.stop();
}

// --optimize: the pipeline runs once over the served module at start();
// /report appends its section to the folded report and /stats carries
// the opt.* metrics.
TEST(DaemonTest, OptimizeAppendsPipelineSectionAndStats) {
  Workload W = buildWorkload("sunflow", 60);
  std::string Trace = recordTrace(*W.M);
  std::string Socket = socketPath("optimize");
  DaemonConfig Cfg = daemonConfig(Socket, 1);
  Cfg.Optimize = true;

  opt::PipelineOptions PO;
  PO.Engine = Cfg.Base.Engine;
  PO.Slicing = Cfg.Base.Slicing;
  StringOutStream Section;
  opt::renderOptimizeReport(opt::PassManager(PO).run(*W.M), Section);
  ASSERT_NE(Section.str().find("[applied]"), std::string::npos);

  Daemon D(*W.M, std::move(Cfg));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;
  ServeClient C;
  ASSERT_TRUE(C.connect(Socket, Err)) << Err;
  ASSERT_TRUE(C.open(Err)) << Err;
  ASSERT_TRUE(C.feed(Trace, Err)) << Err;
  ASSERT_TRUE(C.done(Err)) << Err;
  C.close();

  std::string Body;
  ASSERT_TRUE(httpGet(D.httpPort(), "/report", Body, Err)) << Err;
  EXPECT_EQ(Body, offlineReport(*W.M, {Trace}, fullSpec()) + "\n" +
                      Section.str());

  ASSERT_TRUE(httpGet(D.httpPort(), "/stats", Body, Err)) << Err;
  EXPECT_NE(Body.find("\"opt.passes_applied\""), std::string::npos);
  EXPECT_NE(Body.find("\"opt.capped\""), std::string::npos);
  D.stop();
}

TEST(DaemonTest, StopShutsListenersDownCleanly) {
  Workload W = buildWorkload("chart", 40);
  std::string Socket = socketPath("stop");
  Daemon D(*W.M, daemonConfig(Socket, 1));
  std::string Err;
  ASSERT_TRUE(D.start(Err)) << Err;
  EXPECT_TRUE(D.running());
  uint16_t Port = D.httpPort();
  EXPECT_NE(Port, 0);

  D.stop();
  EXPECT_FALSE(D.running());
  std::string Body;
  EXPECT_FALSE(httpGet(Port, "/healthz", Body, Err));
  ServeClient C;
  EXPECT_FALSE(C.connect(Socket, Err));
  D.stop(); // Idempotent.
}

} // namespace
