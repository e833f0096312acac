//===- service/SessionManager.cpp - Streaming session lifecycle ------------===//

#include "service/SessionManager.h"

#include "obs/PhaseTimer.h"
#include "support/OutStream.h"

using namespace lud;
using namespace lud::serve;

const char *lud::serve::sessionStateName(SessionState S) {
  switch (S) {
  case SessionState::Open:
    return "open";
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

bool SessionHandle::feed(std::string_view InBytes, std::string &Err) {
  std::lock_guard<std::mutex> Feeding(FeedMu);
  {
    std::lock_guard<std::mutex> Lock(Mgr.Mu);
    if (St != SessionState::Open) {
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
    LastTouch = std::chrono::steady_clock::now();
  }
  Mgr.bump("serve.chunks_fed");

  // Re-execute outside Mgr.Mu: FeedMu keeps PS to this one frame, and the
  // gate bounds how many frames re-execute at once across all sessions.
  Mgr.Gate.acquire();
  ReplayRun R = PS->replay(Mgr.Mod, InBytes);
  Mgr.Gate.release();

  Mgr.bump("serve.bytes_replayed", InBytes.size());
  Mgr.bump("serve.events_replayed", R.Events);
  Mgr.bump("serve.segments_replayed", R.Segments);
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  Events += R.Events;
  Segments += R.Segments;
  LastTouch = std::chrono::steady_clock::now();
  // Bad record: fail this session — and only this session — with the
  // line-numbered replay diagnostic, verbatim.
  if (!R.Ok)
    Mgr.failLocked(*this, SessionState::Failed, R.Error);
  if (St == SessionState::Open)
    return true;
  Err = Diag; // Failed here, or aborted/evicted while re-executing.
  return false;
}

bool SessionHandle::finish(std::string &Err) {
  std::lock_guard<std::mutex> Feeding(FeedMu);
  std::lock_guard<std::mutex> Lock(Mgr.Mu);
  if (St == SessionState::Open) {
    St = SessionState::Closed;
    Mgr.bump("serve.sessions_closed");
  }
  if (St == SessionState::Closed)
    return true;
  Err = Diag;
  return false;
}

//===----------------------------------------------------------------------===//
// SessionManager
//===----------------------------------------------------------------------===//

SessionManager::SessionManager(const Module &M, SessionConfig BaseIn,
                               SessionLimits LimitsIn, unsigned WorkersIn)
    : Mod(M), Base(std::move(BaseIn)), Limits(LimitsIn),
      Workers(WorkersIn ? WorkersIn : 1), Gate(Workers) {
  // Streamed sessions re-execute a recording; a replaying session must
  // never re-record.
  Base.RecordPath.clear();
  Base.RecordSink = nullptr;
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
    if (S.St != SessionState::Open)
      continue;
    // A session whose feed() holds FeedMu is re-executing, not idle.
    std::unique_lock<std::mutex> Feeding(S.FeedMu, std::try_to_lock);
    if (!Feeding)
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
  bump(To == SessionState::Evicted ? "serve.sessions_evicted"
                                   : "serve.sessions_failed");
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
