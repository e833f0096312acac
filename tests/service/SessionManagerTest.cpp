//===- tests/service/SessionManagerTest.cpp - Session lifecycle -----------===//
//
// The serve::SessionManager contract: the open -> feed -> fold -> seal ->
// report lifecycle over concurrent streamed sessions: interleaved streams
// fold byte-identically to a sequential replay at every worker count, and
// one corrupt stream kills only its own session, carrying the replay
// diagnostic verbatim.
//
//===----------------------------------------------------------------------===//

#include "profiling/GraphIO.h"
#include "service/SessionManager.h"
#include "support/OutStream.h"
#include "trace/RunManifest.h"
#include "workloads/DaCapo.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

using namespace lud;
using namespace lud::serve;

namespace {

SessionConfig allClientsConfig() {
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  return Cfg;
}

/// Records \p Runs live passes of \p M into one in-memory `lud.run.v1`
/// manifest (one record per pass).
std::string recordTrace(const Module &M, unsigned Runs = 1,
                        ClientSet Clients = ClientSet::all()) {
  StringOutStream Sink;
  SessionConfig Cfg = allClientsConfig();
  Cfg.Clients = Clients;
  Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  for (unsigned I = 0; I != Runs; ++I)
    S.run(M);
  return Sink.str();
}

std::string graphBytes(const ProfileSession &S) {
  StringOutStream OS;
  writeGraph(FrozenGraph(S.slicing()->graph()), OS);
  return OS.str();
}

/// One FEED frame per manifest record.
std::vector<std::string> recordFrames(const std::string &Manifest) {
  std::vector<std::string> Frames;
  for (std::string_view Line : trace::splitRecords(Manifest))
    Frames.push_back(std::string(Line) + "\n");
  return Frames;
}

/// The sequential-replay reference: every manifest, in order, into one
/// session — what `lud-replay` does.
std::string sequentialGraph(const Module &M,
                            const std::vector<std::string> &Traces) {
  ProfileSession S(allClientsConfig());
  for (const std::string &T : Traces) {
    ReplayRun R = S.replay(M, T);
    EXPECT_TRUE(R.Ok) << R.Error;
  }
  return graphBytes(S);
}

TEST(SessionManagerTest, LifecycleOpenFeedFinishFold) {
  Workload W = buildWorkload("chart", 60);
  std::string Trace = recordTrace(*W.M);

  SessionManager Mgr(*W.M, allClientsConfig());
  SessionHandle &S = Mgr.open();
  EXPECT_EQ(S.state(), SessionState::Open);
  EXPECT_EQ(S.clients(), ClientSet::all());

  std::string Err;
  ASSERT_TRUE(S.feed(Trace, Err)) << Err;
  ASSERT_TRUE(S.finish(Err)) << Err;
  EXPECT_EQ(S.state(), SessionState::Closed);
  EXPECT_GT(S.events(), 0u);
  EXPECT_EQ(S.segments(), 1u);
  EXPECT_EQ(S.bytesFed(), Trace.size());

  uint64_t Events = 0, Folded = 0;
  std::unique_ptr<ProfileSession> Report = Mgr.foldClosed(Events, Folded);
  ASSERT_TRUE(Report);
  EXPECT_EQ(Events, S.events());
  EXPECT_EQ(Folded, 1u);
  EXPECT_EQ(graphBytes(*Report), sequentialGraph(*W.M, {Trace}));

  // The fold is non-destructive and repeatable: sessions stay Closed.
  EXPECT_EQ(S.state(), SessionState::Closed);
  std::unique_ptr<ProfileSession> Again = Mgr.foldClosed(Events, Folded);
  ASSERT_TRUE(Again);
  EXPECT_EQ(graphBytes(*Again), graphBytes(*Report));
}

TEST(SessionManagerTest, FoldWithNoClosedSessionsReturnsNull) {
  Workload W = buildWorkload("chart", 40);
  SessionManager Mgr(*W.M, allClientsConfig());
  Mgr.open(); // Open, never finished: not foldable.
  uint64_t Events = 0, Folded = 0;
  EXPECT_EQ(Mgr.foldClosed(Events, Folded), nullptr);
  EXPECT_EQ(Folded, 0u);
}

// Determinism at the manager level: N interleaved streamed sessions fold
// byte-identically to the sequential replay of the same manifests,
// whatever the worker count.
TEST(SessionManagerTest, InterleavedStreamsMatchSequentialReplay) {
  Workload W = buildWorkload("fop", 50);
  std::vector<std::string> Traces = {recordTrace(*W.M, 3),
                                     recordTrace(*W.M, 2),
                                     recordTrace(*W.M, 1)};
  std::string Want = sequentialGraph(*W.M, Traces);

  for (unsigned Workers : {1u, 4u}) {
    SessionManager Mgr(*W.M, allClientsConfig(), SessionLimits{}, Workers);
    std::vector<SessionHandle *> Handles;
    std::vector<std::vector<std::string>> Frames(Traces.size());
    for (size_t I = 0; I != Traces.size(); ++I) {
      Handles.push_back(&Mgr.open());
      Frames[I] = recordFrames(Traces[I]);
      ASSERT_GT(Frames[I].size(), 0u);
    }
    // Round-robin across the sessions, one record per frame.
    for (size_t Round = 0, More = 1; More;) {
      More = 0;
      for (size_t I = 0; I != Handles.size(); ++I) {
        if (Round >= Frames[I].size())
          continue;
        More = 1;
        std::string Err;
        ASSERT_TRUE(Handles[I]->feed(Frames[I][Round], Err)) << Err;
      }
      ++Round;
    }
    for (size_t I = 0; I != Handles.size(); ++I) {
      std::string Err;
      ASSERT_TRUE(Handles[I]->finish(Err)) << Err;
      EXPECT_EQ(Handles[I]->segments(), Frames[I].size());
    }
    uint64_t Events = 0, Folded = 0;
    std::unique_ptr<ProfileSession> Report = Mgr.foldClosed(Events, Folded);
    ASSERT_TRUE(Report);
    EXPECT_EQ(Folded, Traces.size());
    EXPECT_EQ(graphBytes(*Report), Want) << "workers=" << Workers;
  }
}

// Isolation: a corrupt stream fails only the offending session, and its
// diagnostic is the line-numbered replay message verbatim — byte-equal to
// what a direct ProfileSession::replay of the same bytes reports.
TEST(SessionManagerTest, CorruptStreamFailsOnlyThatSession) {
  Workload W = buildWorkload("chart", 60);
  std::string Good = recordTrace(*W.M);
  std::string Bad = "not a lud.run.v1 manifest";

  std::string WantDiag;
  {
    ProfileSession Direct(allClientsConfig());
    ReplayRun R = Direct.replay(*W.M, Bad);
    ASSERT_FALSE(R.Ok);
    WantDiag = R.Error;
    ASSERT_FALSE(WantDiag.empty());
  }

  SessionManager Mgr(*W.M, allClientsConfig());
  SessionHandle &SBad = Mgr.open();
  SessionHandle &SGood = Mgr.open();

  // The feed() that carried the bad record fails the session, verbatim;
  // finish() repeats the diagnostic.
  std::string Err;
  EXPECT_FALSE(SBad.feed(Bad, Err));
  EXPECT_EQ(Err, WantDiag);
  EXPECT_EQ(SBad.state(), SessionState::Failed);
  EXPECT_EQ(SBad.error(), WantDiag);
  EXPECT_FALSE(SBad.finish(Err));
  EXPECT_EQ(Err, WantDiag);

  // Feeding a failed session reports the same diagnostic.
  EXPECT_FALSE(SBad.feed(Good, Err));
  EXPECT_EQ(Err, WantDiag);

  // The sibling session is untouched and still folds.
  ASSERT_TRUE(SGood.feed(Good, Err)) << Err;
  ASSERT_TRUE(SGood.finish(Err)) << Err;
  uint64_t Events = 0, Folded = 0;
  std::unique_ptr<ProfileSession> Report = Mgr.foldClosed(Events, Folded);
  ASSERT_TRUE(Report);
  EXPECT_EQ(Folded, 1u);
  EXPECT_EQ(graphBytes(*Report), sequentialGraph(*W.M, {Good}));
}

TEST(SessionManagerTest, QuotaFailsTheSessionWithADiagnostic) {
  Workload W = buildWorkload("chart", 40);
  std::string Trace = recordTrace(*W.M);

  SessionLimits Limits;
  Limits.MaxSessionBytes = Trace.size() - 1;
  SessionManager Mgr(*W.M, allClientsConfig(), Limits);
  SessionHandle &S = Mgr.open();

  std::string Err;
  EXPECT_FALSE(S.feed(Trace, Err));
  EXPECT_EQ(S.state(), SessionState::Failed);
  EXPECT_NE(Err.find("session quota exceeded"), std::string::npos) << Err;

  EXPECT_FALSE(S.finish(Err));
  EXPECT_NE(Err.find("session quota exceeded"), std::string::npos) << Err;

  // Quota is per session: a sibling under the same manager gets past it.
  // Its half record is under quota and fails on its own FEED, with the
  // replay diagnostic rather than the quota's.
  SessionHandle &S2 = Mgr.open();
  std::string Half = Trace.substr(0, Trace.size() / 2);
  std::string WantDiag;
  {
    ProfileSession Direct(allClientsConfig());
    WantDiag = Direct.replay(*W.M, Half).Error;
    ASSERT_FALSE(WantDiag.empty());
  }
  EXPECT_FALSE(S2.feed(Half, Err));
  EXPECT_EQ(S2.state(), SessionState::Failed);
  EXPECT_EQ(Err, WantDiag);
  EXPECT_FALSE(S2.finish(Err));
  EXPECT_EQ(Err, WantDiag);
}

TEST(SessionManagerTest, IdleSessionsAreEvicted) {
  Workload W = buildWorkload("chart", 40);
  SessionLimits Limits;
  Limits.IdleEvictSeconds = 0.01;
  SessionManager Mgr(*W.M, allClientsConfig(), Limits);
  SessionHandle &S = Mgr.open();
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_EQ(Mgr.evictIdle(), 1u);
  EXPECT_EQ(S.state(), SessionState::Evicted);
  std::string Err;
  EXPECT_FALSE(S.feed("x", Err));
  EXPECT_FALSE(S.finish(Err));
}

TEST(SessionManagerTest, AbortCarriesTheCallersDiagnostic) {
  Workload W = buildWorkload("chart", 40);
  SessionManager Mgr(*W.M, allClientsConfig());
  SessionHandle &S = Mgr.open();
  Mgr.abort(S, "connection closed before DONE");
  EXPECT_EQ(S.state(), SessionState::Failed);
  EXPECT_EQ(S.error(), "connection closed before DONE");
  // Aborting a terminal session is a no-op.
  Mgr.abort(S, "something else");
  EXPECT_EQ(S.error(), "connection closed before DONE");
}

TEST(SessionManagerTest, ServeCountersAccumulate) {
  Workload W = buildWorkload("chart", 40);
  std::string Trace = recordTrace(*W.M);
  SessionManager Mgr(*W.M, allClientsConfig());
  SessionHandle &S = Mgr.open();
  std::string Err;
  ASSERT_TRUE(S.feed(Trace, Err)) << Err;
  ASSERT_TRUE(S.finish(Err)) << Err;
  StringOutStream OS;
  Mgr.statsJson(OS);
  const std::string &J = OS.str();
  EXPECT_NE(J.find("lud.stats.v1"), std::string::npos);
  EXPECT_NE(J.find("serve.sessions_opened"), std::string::npos);
  EXPECT_NE(J.find("serve.sessions_closed"), std::string::npos);
  EXPECT_NE(J.find("serve.bytes_replayed"), std::string::npos);
}

// Two threads feed two sessions at once through a single re-execution
// permit: the gate serializes their frames without deadlock, both sessions
// close, and the fold equals the sequential replay.
TEST(SessionManagerTest, OneWorkerGateServesConcurrentFeeders) {
  Workload W = buildWorkload("fop", 50);
  std::vector<std::string> Traces = {recordTrace(*W.M, 3),
                                     recordTrace(*W.M, 2)};
  SessionManager Mgr(*W.M, allClientsConfig(), SessionLimits{},
                     /*Workers=*/1);
  EXPECT_EQ(Mgr.workers(), 1u);
  std::vector<SessionHandle *> Handles = {&Mgr.open(), &Mgr.open()};
  std::vector<std::string> Errs(Handles.size());
  std::vector<std::thread> Feeders;
  for (size_t I = 0; I != Handles.size(); ++I)
    Feeders.emplace_back([&, I] {
      for (const std::string &Frame : recordFrames(Traces[I]))
        if (!Handles[I]->feed(Frame, Errs[I]))
          return;
      Handles[I]->finish(Errs[I]);
    });
  for (std::thread &T : Feeders)
    T.join();
  for (size_t I = 0; I != Handles.size(); ++I) {
    EXPECT_EQ(Handles[I]->state(), SessionState::Closed) << Errs[I];
    EXPECT_EQ(Handles[I]->segments(), recordFrames(Traces[I]).size());
  }
  uint64_t Events = 0, Folded = 0;
  std::unique_ptr<ProfileSession> Report = Mgr.foldClosed(Events, Folded);
  ASSERT_TRUE(Report);
  EXPECT_EQ(Folded, 2u);
  EXPECT_EQ(graphBytes(*Report), sequentialGraph(*W.M, Traces));
}

} // namespace
