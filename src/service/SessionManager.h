//===- service/SessionManager.h - Streaming session lifecycle --*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The session-lifecycle core of the profiling service: open a session,
/// feed it whole `lud.run.v1` manifest records, finish it, and fold every
/// finished session into one report — the open → feed → fold → seal →
/// report arc ProfileSession gives a single batch run, lifted to many
/// concurrent streams. Re-execution runs on a shared WorkerPool with at
/// most one in-flight drain job per session, so a session's chunks replay
/// in arrival order while distinct sessions replay in parallel.
///
/// Robustness is part of the contract: a hard per-session byte quota,
/// idle-session eviction, and rejection of malformed or mismatched records
/// that fails only the offending session — carrying the line-numbered
/// replay diagnostic verbatim as the session's error. A record is one
/// short line, so the quota bounds what a session can queue, and each
/// record's own instruction count bounds the work its re-execution does.
///
/// Determinism: the report fold merges every Closed session in session-id
/// order into a fresh prepared session. DepGraph::mergeFrom into an empty
/// graph reproduces the source numbering exactly, so the folded report is
/// byte-identical to `lud-replay` over the same manifests in the same order,
/// at any worker count. replayShardedSession() below is exactly that
/// batch frontend.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SERVICE_SESSIONMANAGER_H
#define LUD_SERVICE_SESSIONMANAGER_H

#include "obs/Metrics.h"
#include "support/WorkerPool.h"
#include "workloads/ParallelDriver.h"

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace lud {
namespace serve {

using SessionId = uint64_t;

enum class SessionState : uint8_t {
  Open,     ///< Accepting feed() records.
  Draining, ///< finish() called; queued chunks still replaying.
  Closed,   ///< Finished cleanly; participates in the report fold.
  Failed,   ///< Rejected (bad record, quota, abort); never folded.
  Evicted,  ///< Idle-reaped; never folded.
};

const char *sessionStateName(SessionState S);

struct SessionLimits {
  /// Hard per-session ingest quota, bytes; exceeding it fails the session.
  uint64_t MaxSessionBytes = 1ull << 30;
  /// Evict Open sessions idle (no feed/finish) this many seconds; 0 never
  /// evicts.
  double IdleEvictSeconds = 0;
};

class SessionManager;

/// One streamed profiling session. Handles are created and owned by a
/// SessionManager and stay valid for the manager's lifetime, whatever
/// state the session reaches. Thread-safe: feed/finish/state may be
/// called from any thread.
class SessionHandle {
public:
  SessionId id() const { return Id; }
  ClientSet clients() const { return Clients; }
  SessionState state() const;
  /// Failure diagnostic once Failed/Evicted. For a bad record this is the
  /// line-numbered replay message, verbatim — the same string
  /// ProfileSession::replay reports for the same bytes.
  std::string error() const;
  uint64_t bytesFed() const;
  uint64_t events() const;
  uint64_t segments() const;

  /// Queues \p Bytes — one or more complete `lud.run.v1` records — for
  /// re-execution. Returns false when the session is not Open (an earlier
  /// chunk may have already failed it) or the quota would be exceeded;
  /// \p Err then carries the session's diagnostic.
  bool feed(std::string Bytes, std::string &Err);

  /// Drains the queued chunks and closes the session. True → Closed and
  /// the session folds into future reports; false → Failed/Evicted with
  /// \p Err set to the verbatim diagnostic.
  bool finish(std::string &Err);

private:
  friend class SessionManager;
  SessionHandle(SessionManager &Mgr, SessionId Id, ClientSet Clients)
      : Mgr(Mgr), Id(Id), Clients(Clients) {}

  SessionManager &Mgr;
  const SessionId Id;
  const ClientSet Clients;

  // Everything below is guarded by Mgr.Mu, except PS's profiler state,
  // which only the single in-flight drain job (and, once Closed, the
  // fold) touches.
  SessionState St = SessionState::Open;
  std::string Diag;
  std::unique_ptr<ProfileSession> PS;
  std::deque<std::string> Pending;
  uint64_t Bytes = 0;
  uint64_t Events = 0;
  uint64_t Segments = 0;
  bool JobActive = false;
  std::chrono::steady_clock::time_point LastTouch;
};

/// Owns the sessions, the worker pool, and the `serve.*` telemetry.
class SessionManager {
public:
  /// \p Base configures every session (engine/slots/clients/stats);
  /// record settings are stripped — streamed sessions are already the
  /// recording. \p M must outlive the manager.
  SessionManager(const Module &M, SessionConfig Base,
                 SessionLimits Limits = {}, unsigned Workers = 4);
  ~SessionManager();

  SessionManager(const SessionManager &) = delete;
  SessionManager &operator=(const SessionManager &) = delete;

  /// Opens a session with the base client set (or \p Clients).
  SessionHandle &open();
  SessionHandle &open(ClientSet Clients);
  SessionHandle *find(SessionId Id);
  /// Snapshot of every session, in id order.
  std::vector<SessionHandle *> sessions();

  /// Fails \p S from outside the protocol (e.g. its connection died
  /// before DONE). No-op on already-terminal sessions.
  void abort(SessionHandle &S, const std::string &Why);

  /// Evicts Open sessions idle past Limits.IdleEvictSeconds; returns how
  /// many were evicted. No-op when the limit is 0.
  size_t evictIdle();

  /// Folds every Closed session, in session-id order, into a fresh
  /// prepared session (the empty-merge identity makes this reproduce the
  /// sequential replay exactly). \p EventsOut / \p SessionsOut report the
  /// folded totals; returns null when no session is Closed. Sessions stay
  /// Closed and foldable — the fold target is fresh every time, so
  /// serving a report is repeatable and non-destructive.
  std::unique_ptr<ProfileSession> foldClosed(uint64_t &EventsOut,
                                             uint64_t &SessionsOut);

  const Module &module() const { return Mod; }
  const SessionConfig &baseConfig() const { return Base; }
  const SessionLimits &limits() const { return Limits; }
  unsigned workers() const { return Pool.threads(); }

  /// Thread-safe bump of a `serve.*` counter (shared with the daemon's
  /// HTTP layer).
  void bump(const char *Counter, uint64_t Delta = 1);
  /// Lock-guarded `lud.stats.v1` JSON snapshot of the serve.* registry.
  void statsJson(OutStream &OS);
  /// Lock-guarded direct access to the registry for publishers that emit
  /// whole metric families (e.g. the optimizer's opt.* block).
  void withStats(const std::function<void(obs::MetricsRegistry &)> &Fn);

private:
  friend class SessionHandle;

  // All private helpers named *Locked require Mu held.
  void scheduleDrainLocked(SessionHandle &S);
  void failLocked(SessionHandle &S, SessionState To, const std::string &Why);
  void drainJob(SessionHandle &S);

  const Module &Mod;
  SessionConfig Base;
  SessionLimits Limits;

  std::mutex Mu;
  std::condition_variable CV;
  std::map<SessionId, std::unique_ptr<SessionHandle>> Sessions;
  SessionId NextId = 1;
  bool ShuttingDown = false;

  std::mutex StatsMu;
  obs::MetricsRegistry ServeStats;

  WorkerPool Pool; // Last member: workers must die before the state above.
};

} // namespace serve

/// Re-executes a sharded recording: one streamed session per manifest in
/// \p TracePaths, replayed at most \p Threads at a time, folded in index
/// order — the deterministic shard fold, now running through the same
/// serve::SessionManager lifecycle the lud-serve daemon uses, so batch
/// replay and streaming ingest are two frontends over one session API.
/// The result is identical to the live sharded run's and independent of
/// \p Threads.
ShardedSession replayShardedSession(const Module &M,
                                    const std::vector<std::string> &TracePaths,
                                    SessionConfig Cfg = {},
                                    unsigned Threads = 4);

} // namespace lud

#endif // LUD_SERVICE_SESSIONMANAGER_H
