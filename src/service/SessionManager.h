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
/// concurrent streams. feed() re-executes its records on the calling
/// thread before it returns, one frame at a time per session; a counting
/// gate lets at most `Workers` re-executions run at once across all
/// sessions, so distinct sessions replay in parallel up to that bound.
///
/// Robustness is part of the contract: a hard per-session byte quota,
/// idle-session eviction, and rejection of malformed or mismatched records
/// that fails only the offending session — on the feed() that carried the
/// record, with the line-numbered replay diagnostic verbatim as the
/// session's error. A session holds nothing but the frame it is
/// re-executing, and each record's own instruction count bounds the work
/// that re-execution does.
///
/// Determinism: the report fold merges every Closed session in session-id
/// order into a fresh prepared session. DepGraph::mergeFrom into an empty
/// graph reproduces the source numbering exactly, so the folded report is
/// byte-identical to `lud-replay` over the same manifests in the same order
/// (replayShardedSession, workloads/ParallelDriver.h), at any worker count.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SERVICE_SESSIONMANAGER_H
#define LUD_SERVICE_SESSIONMANAGER_H

#include "obs/Metrics.h"
#include "workloads/Driver.h"

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <string>
#include <string_view>
#include <vector>

namespace lud {
namespace serve {

using SessionId = uint64_t;

enum class SessionState : uint8_t {
  Open,    ///< Accepting feed() records.
  Closed,  ///< Finished cleanly; participates in the report fold.
  Failed,  ///< Rejected (bad record, quota, abort); never folded.
  Evicted, ///< Idle-reaped; never folded.
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

  /// Re-executes \p Bytes — one or more complete `lud.run.v1` records —
  /// before returning. Returns false when the session is not Open, the
  /// quota would be exceeded, or a record fails its replay (which fails the
  /// session); \p Err then carries the session's diagnostic.
  bool feed(std::string_view Bytes, std::string &Err);

  /// Closes the session. True → Closed and the session folds into future
  /// reports; false → Failed/Evicted with \p Err set to the verbatim
  /// diagnostic.
  bool finish(std::string &Err);

private:
  friend class SessionManager;
  SessionHandle(SessionManager &Mgr, SessionId Id, ClientSet Clients)
      : Mgr(Mgr), Id(Id), Clients(Clients) {}

  SessionManager &Mgr;
  const SessionId Id;
  const ClientSet Clients;

  /// Held by feed() and finish(): one frame re-executes at a time, and PS's
  /// profiler state is touched only under it (or, once Closed, by the fold).
  std::mutex FeedMu;
  // Everything below is guarded by Mgr.Mu.
  SessionState St = SessionState::Open;
  std::string Diag;
  std::unique_ptr<ProfileSession> PS;
  uint64_t Bytes = 0;
  uint64_t Events = 0;
  uint64_t Segments = 0;
  std::chrono::steady_clock::time_point LastTouch;
};

/// Owns the sessions, the re-execution gate, and the `serve.*` telemetry.
class SessionManager {
public:
  /// \p Base configures every session (engine/slots/clients/stats);
  /// record settings are stripped — streamed sessions are already the
  /// recording. At most \p Workers feed() calls re-execute at once. \p M
  /// must outlive the manager.
  SessionManager(const Module &M, SessionConfig Base,
                 SessionLimits Limits = {}, unsigned Workers = 4);

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

  /// Evicts Open sessions idle past Limits.IdleEvictSeconds, skipping any
  /// whose feed() is re-executing; returns how many were evicted. No-op
  /// when the limit is 0.
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
  unsigned workers() const { return Workers; }

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

  /// Requires Mu held.
  void failLocked(SessionHandle &S, SessionState To, const std::string &Why);

  const Module &Mod;
  SessionConfig Base;
  SessionLimits Limits;
  const unsigned Workers;
  /// One permit per concurrent re-execution.
  std::counting_semaphore<> Gate;

  std::mutex Mu;
  std::map<SessionId, std::unique_ptr<SessionHandle>> Sessions;
  SessionId NextId = 1;

  std::mutex StatsMu;
  obs::MetricsRegistry ServeStats;
};

} // namespace serve
} // namespace lud

#endif // LUD_SERVICE_SESSIONMANAGER_H
