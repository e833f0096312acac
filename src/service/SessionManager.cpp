//===- service/SessionManager.cpp - Streaming session lifecycle ------------===//

#include "service/SessionManager.h"

#include "obs/PhaseTimer.h"
#include "support/OutStream.h"

#include <cerrno>
#include <cstring>

using namespace lud;
using namespace lud::serve;

const char *lud::serve::sessionStateName(SessionState S) {
  switch (S) {
  case SessionState::Open:
    return "open";
  case SessionState::Draining:
    return "draining";
  case SessionState::Closed:
    return "closed";
  case SessionState::Failed:
    return "failed";
  case SessionState::Evicted:
    return "evicted";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// SessionHandle
//===----------------------------------------------------------------------===//

SessionState SessionHandle::state() const {
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  return St;
}

std::string SessionHandle::error() const {
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  return Diag;
}

uint64_t SessionHandle::bytesFed() const {
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  return Bytes;
}

uint64_t SessionHandle::events() const {
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  return Events;
}

uint64_t SessionHandle::segments() const {
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  return Segments;
}

bool SessionHandle::feed(std::string InBytes, std::string &Err) {
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  if (Mgr.ShuttingDown && St == SessionState::Open) {
    Err = "service shutting down";
    return false;
  }
  if (St != SessionState::Open) {
    // An earlier chunk may already have failed the session on the drain
    // thread; hand the caller the latched diagnostic.
    Err = Diag.empty() ? std::string("session is ") + sessionStateName(St)
                       : Diag;
    return false;
  }
  if (Bytes + InBytes.size() > Mgr.Limits.MaxSessionBytes) {
    Mgr.failLocked(*this, SessionState::Failed,
                   "session quota exceeded (" +
                       std::to_string(Bytes + InBytes.size()) + " > " +
                       std::to_string(Mgr.Limits.MaxSessionBytes) +
                       " bytes)");
    Err = Diag;
    return false;
  }
  Bytes += InBytes.size();
  Pending.push_back(std::move(InBytes));
  LastTouch = std::chrono::steady_clock::now();
  Mgr.bump("serve.chunks_fed");
  Mgr.scheduleDrainLocked(*this);
  return true;
}

bool SessionHandle::finish(std::string &Err) {
  std::unique_lock<std::mutex> Lock(Mgr.Mu);
  if (St == SessionState::Open) {
    LastTouch = std::chrono::steady_clock::now();
    St = SessionState::Draining;
    // Invariant: a non-empty queue always has a drain job in flight, so a
    // quiet session can close right here; otherwise the drain job closes
    // it when the queue empties.
    if (!JobActive && Pending.empty()) {
      St = SessionState::Closed;
      Mgr.bump("serve.sessions_closed");
      Mgr.CV.notify_all();
    } else if (!JobActive) {
      Mgr.scheduleDrainLocked(*this);
    }
  }
  Mgr.CV.wait(Lock, [&] {
    return (St != SessionState::Open && St != SessionState::Draining) ||
           Mgr.ShuttingDown;
  });
  if (St == SessionState::Closed)
    return true;
  Err = (St == SessionState::Open || St == SessionState::Draining)
            ? "service shutting down"
            : Diag;
  return false;
}

//===----------------------------------------------------------------------===//
// SessionManager
//===----------------------------------------------------------------------===//

SessionManager::SessionManager(const Module &M, SessionConfig BaseIn,
                               SessionLimits LimitsIn, unsigned Workers)
    : Mod(M), Base(std::move(BaseIn)), Limits(LimitsIn), Pool(Workers) {
  // Streamed sessions re-execute a recording; a replaying session must
  // never re-record.
  Base.RecordPath.clear();
  Base.RecordSink = nullptr;
}

SessionManager::~SessionManager() {
  {
    std::lock_guard<std::mutex> Lock(Mu);
    ShuttingDown = true;
  }
  CV.notify_all();
  Pool.stop();
}

SessionHandle &SessionManager::open() { return open(Base.Clients); }

SessionHandle &SessionManager::open(ClientSet Clients) {
  std::lock_guard<std::mutex> Lock(Mu);
  SessionId Id = NextId++;
  auto H = std::unique_ptr<SessionHandle>(new SessionHandle(*this, Id,
                                                            Clients));
  SessionConfig SC = Base;
  SC.Clients = Clients;
  H->PS = std::make_unique<ProfileSession>(std::move(SC));
  // Prepare eagerly so even a zero-feed session folds as a well-defined
  // empty profile rather than being silently skipped by the merge guards.
  H->PS->prepare(Mod);
  H->LastTouch = std::chrono::steady_clock::now();
  SessionHandle &Ref = *H;
  Sessions.emplace(Id, std::move(H));
  bump("serve.sessions_opened");
  return Ref;
}

SessionHandle *SessionManager::find(SessionId Id) {
  std::lock_guard<std::mutex> Lock(Mu);
  auto It = Sessions.find(Id);
  return It == Sessions.end() ? nullptr : It->second.get();
}

std::vector<SessionHandle *> SessionManager::sessions() {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<SessionHandle *> Out;
  Out.reserve(Sessions.size());
  for (auto &KV : Sessions)
    Out.push_back(KV.second.get());
  return Out;
}

void SessionManager::abort(SessionHandle &S, const std::string &Why) {
  std::lock_guard<std::mutex> Lock(Mu);
  failLocked(S, SessionState::Failed, Why);
}

size_t SessionManager::evictIdle() {
  if (Limits.IdleEvictSeconds <= 0)
    return 0;
  std::lock_guard<std::mutex> Lock(Mu);
  size_t N = 0;
  auto Now = std::chrono::steady_clock::now();
  for (auto &KV : Sessions) {
    SessionHandle &S = *KV.second;
    if (S.St != SessionState::Open || S.JobActive || !S.Pending.empty())
      continue;
    double Idle = std::chrono::duration<double>(Now - S.LastTouch).count();
    if (Idle < Limits.IdleEvictSeconds)
      continue;
    failLocked(S, SessionState::Evicted,
               "session evicted after " +
                   std::to_string(uint64_t(Idle)) + "s idle");
    ++N;
  }
  return N;
}

void SessionManager::failLocked(SessionHandle &S, SessionState To,
                                const std::string &Why) {
  if (S.St == SessionState::Closed || S.St == SessionState::Failed ||
      S.St == SessionState::Evicted)
    return;
  S.St = To;
  S.Diag = Why;
  S.Pending.clear();
  bump(To == SessionState::Evicted ? "serve.sessions_evicted"
                                   : "serve.sessions_failed");
  CV.notify_all();
}

void SessionManager::scheduleDrainLocked(SessionHandle &S) {
  if (S.JobActive || ShuttingDown)
    return;
  S.JobActive = true;
  Pool.submit([this, &S] { drainJob(S); });
}

void SessionManager::drainJob(SessionHandle &S) {
  std::unique_lock<std::mutex> Lock(Mu);
  for (;;) {
    if (S.Pending.empty() || ShuttingDown ||
        (S.St != SessionState::Open && S.St != SessionState::Draining)) {
      if (S.St == SessionState::Draining && S.Pending.empty() &&
          !ShuttingDown) {
        S.St = SessionState::Closed;
        bump("serve.sessions_closed");
      }
      S.JobActive = false;
      CV.notify_all();
      return;
    }
    std::string Chunk = std::move(S.Pending.front());
    S.Pending.pop_front();

    // Replay outside the lock: only this job touches S.PS's profilers, and
    // the handle itself outlives the manager's workers.
    Lock.unlock();
    ReplayRun R = S.PS->replay(Mod, Chunk);
    Lock.lock();

    S.Events += R.Events;
    S.Segments += R.Segments;
    bump("serve.bytes_replayed", Chunk.size());
    bump("serve.events_replayed", R.Events);
    bump("serve.segments_replayed", R.Segments);
    if (!R.Ok) {
      // Bad record: fail this session — and only this session — with the
      // line-numbered replay diagnostic, verbatim.
      failLocked(S, SessionState::Failed, R.Error);
      S.JobActive = false;
      CV.notify_all();
      return;
    }
  }
}

std::unique_ptr<ProfileSession>
SessionManager::foldClosed(uint64_t &EventsOut, uint64_t &SessionsOut) {
  EventsOut = 0;
  SessionsOut = 0;
  // Snapshot under the lock; Closed sessions are immutable from here on
  // (handles are never erased), so the fold itself can run unlocked.
  std::vector<SessionHandle *> Closed;
  ClientSet Union;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    for (auto &KV : Sessions)
      if (KV.second->St == SessionState::Closed) {
        Closed.push_back(KV.second.get());
        Union |= KV.second->Clients;
      }
  }
  if (Closed.empty())
    return nullptr;

  SessionConfig SC = Base;
  SC.Clients = Union;
  auto Target = std::make_unique<ProfileSession>(std::move(SC));
  Target->prepare(Mod);
  {
    // Fold in session-id order into the freshly prepared session: the
    // empty-merge identity (DepGraph::mergeFrom) makes this reproduce the
    // sequential replay of the same streams byte for byte, at any worker
    // count.
    obs::PhaseTimer Span(Target->stats(), "merge");
    for (SessionHandle *S : Closed) {
      Target->mergeFrom(*S->PS);
      EventsOut += S->Events;
      ++SessionsOut;
    }
  }
  bump("serve.folds");
  return Target;
}

void SessionManager::bump(const char *Counter, uint64_t Delta) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ServeStats.add(ServeStats.counter(Counter), Delta);
}

void SessionManager::statsJson(OutStream &OS) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  ServeStats.writeJson(OS);
}

void SessionManager::withStats(
    const std::function<void(obs::MetricsRegistry &)> &Fn) {
  std::lock_guard<std::mutex> Lock(StatsMu);
  Fn(ServeStats);
}

//===----------------------------------------------------------------------===//
// replayShardedSession — the batch frontend
//===----------------------------------------------------------------------===//

namespace {

double secondsSince(std::chrono::steady_clock::time_point T0) {
  auto T1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(T1 - T0).count();
}

} // namespace

ShardedSession
lud::replayShardedSession(const Module &M,
                          const std::vector<std::string> &TracePaths,
                          SessionConfig Cfg, unsigned Threads) {
  ShardedSession Out;
  unsigned Shards = unsigned(TracePaths.size());
  if (Shards == 0)
    return Out;
  auto T0 = std::chrono::steady_clock::now();
  // One streamed session per shard file, drained Threads at a time on the
  // manager's pool; the manager strips any record settings itself.
  serve::SessionManager Mgr(M, std::move(Cfg), serve::SessionLimits{},
                            Threads);
  std::vector<serve::SessionHandle *> Handles;
  Handles.reserve(Shards);
  for (unsigned S = 0; S != Shards; ++S) {
    serve::SessionHandle &H = Mgr.open();
    Handles.push_back(&H);
    std::string Bytes;
    errno = 0;
    if (!readFileBytes(TracePaths[S], Bytes)) {
      // Same diagnostic ProfileSession::replayFile latches for the path.
      Mgr.abort(H, "cannot read '" + TracePaths[S] + "': " +
                       (errno ? std::strerror(errno) : "unknown error"));
      continue;
    }
    std::string Err;
    H.feed(std::move(Bytes), Err); // A failure surfaces at finish().
  }
  for (unsigned S = 0; S != Shards; ++S) {
    std::string Err;
    Handles[S]->finish(Err);
  }
  for (unsigned S = 0; S != Shards; ++S) {
    // Events count even for failed shards (partial replays are real work).
    Out.Events += Handles[S]->events();
    if (Out.Error.empty() &&
        Handles[S]->state() != serve::SessionState::Closed)
      Out.Error = TracePaths[S] + ": " + Handles[S]->error();
  }
  if (!Out.Error.empty()) {
    Out.Seconds = secondsSince(T0);
    return Out; // A half-replayed shard must not fold into the result.
  }
  uint64_t Events = 0, NumSessions = 0;
  Out.Session = Mgr.foldClosed(Events, NumSessions);
  Out.Seconds = secondsSince(T0);
  return Out;
}
