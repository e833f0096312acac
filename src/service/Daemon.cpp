//===- service/Daemon.cpp - The lud-serve profiling daemon -----------------===//

#include "service/Daemon.h"

#include "analysis/PassManager.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"

#include <cerrno>
#include <chrono>
#include <csignal>
#include <sys/socket.h>
#include <unistd.h>

using namespace lud;
using namespace lud::serve;

//===----------------------------------------------------------------------===//
// Self-pipe signal plumbing (serveForever only)
//===----------------------------------------------------------------------===//

namespace {

// The classic self-pipe trick: the handler does the only async-safe thing
// — write one byte — and serveForever blocks on the read end.
int SignalPipe[2] = {-1, -1};

void onTermSignal(int) {
  char B = 1;
  // The result is irrelevant (a full pipe still wakes the reader), but
  // glibc marks write() warn_unused_result.
  ssize_t R = ::write(SignalPipe[1], &B, 1);
  (void)R;
}

bool parseU64(const std::string &S, uint64_t &V) {
  if (S.empty())
    return false;
  V = 0;
  for (char C : S) {
    if (C < '0' || C > '9')
      return false;
    V = V * 10 + uint64_t(C - '0');
  }
  return true;
}

void jsonEscape(const std::string &S, std::string &Out) {
  for (char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += C;
    } else if (uint8_t(C) < 0x20) {
      Out += ' ';
    } else {
      Out += C;
    }
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// Daemon
//===----------------------------------------------------------------------===//

Daemon::Daemon(const Module &M, DaemonConfig CfgIn)
    : Mod(M), Cfg(std::move(CfgIn)) {
  Mgr = std::make_unique<SessionManager>(Mod, Cfg.Base, Cfg.Limits,
                                         Cfg.Workers);
}

Daemon::~Daemon() { stop(); }

bool Daemon::start(std::string &Err) {
  if (Started)
    return true;
  ignoreSigpipe();
  if (Cfg.Optimize && OptimizerSection.empty()) {
    // One pipeline run over the served module, before the listeners bind:
    // /report then appends the cached section and /stats carries opt.*
    // from the first request on.
    opt::PipelineOptions PO;
    PO.Engine = Cfg.Base.Engine;
    PO.Slicing = Cfg.Base.Slicing;
    opt::PassManager PM(std::move(PO));
    opt::PipelineResult PR = PM.run(Mod);
    StringOutStream OS;
    renderOptimizeReport(PR, OS);
    OptimizerSection = OS.str();
    Mgr->withStats([&PR](obs::MetricsRegistry &Reg) {
      opt::PassManager::accountStats(PR, Reg);
    });
  }
  IngestListen = listenUnix(Cfg.SocketPath, Err);
  if (!IngestListen)
    return false;
  HttpListen = listenTcp(Cfg.HttpPort, BoundHttpPort, Err);
  if (!HttpListen) {
    IngestListen.reset();
    ::unlink(Cfg.SocketPath.c_str());
    return false;
  }
  Started = true;
  Stopping = false;
  std::lock_guard<std::mutex> Lock(ThreadsMu);
  Threads.emplace_back([this] { acceptLoop(IngestListen.get(), false); });
  Threads.emplace_back([this] { acceptLoop(HttpListen.get(), true); });
  Threads.emplace_back([this] { sweeper(); });
  return true;
}

void Daemon::stop() {
  if (!Started || Stopping.exchange(true))
    return;
  // Closing the listeners unblocks the accept loops; shutting the active
  // connections down unblocks their readers. Everything then drains
  // through the normal paths and join() below completes.
  ::shutdown(IngestListen.get(), SHUT_RDWR);
  ::shutdown(HttpListen.get(), SHUT_RDWR);
  {
    std::lock_guard<std::mutex> Lock(ThreadsMu);
    for (int RawFd : ActiveConns)
      ::shutdown(RawFd, SHUT_RDWR);
  }
  SweepCV.notify_all();

  std::vector<std::thread> ToJoin;
  {
    std::lock_guard<std::mutex> Lock(ThreadsMu);
    ToJoin.swap(Threads);
  }
  for (std::thread &T : ToJoin)
    T.join();

  IngestListen.reset();
  HttpListen.reset();
  ::unlink(Cfg.SocketPath.c_str());
  Started = false;
}

bool Daemon::serveForever(std::string &Err) {
  if (::pipe(SignalPipe) != 0) {
    Err = "cannot create signal pipe";
    return false;
  }
  if (!start(Err))
    return false;
  ::signal(SIGTERM, onTermSignal);
  ::signal(SIGINT, onTermSignal);
  char B;
  while (::read(SignalPipe[0], &B, 1) < 0 && errno == EINTR)
    ;
  ::signal(SIGTERM, SIG_DFL);
  ::signal(SIGINT, SIG_DFL);
  stop();
  ::close(SignalPipe[0]);
  ::close(SignalPipe[1]);
  SignalPipe[0] = SignalPipe[1] = -1;
  return true;
}

void Daemon::acceptLoop(int ListenFd, bool Http) {
  for (;;) {
    int Raw = ::accept(ListenFd, nullptr, nullptr);
    if (Raw < 0) {
      if (errno == EINTR)
        continue;
      return; // Listener closed: shutting down.
    }
    Mgr->bump(Http ? "serve.http_connections" : "serve.ingest_connections");
    std::lock_guard<std::mutex> Lock(ThreadsMu);
    // Checked under ThreadsMu: stop() flips Stopping before it swaps the
    // thread list out for joining, so a thread registered here is always
    // joined and one registered later is never spawned.
    if (Stopping) {
      ::close(Raw);
      return;
    }
    ActiveConns.insert(Raw);
    Threads.emplace_back([this, Raw, Http] {
      if (Http)
        handleHttp(Fd(Raw));
      else
        handleIngest(Fd(Raw));
      std::lock_guard<std::mutex> L(ThreadsMu);
      ActiveConns.erase(Raw);
    });
  }
}

//===----------------------------------------------------------------------===//
// Ingest protocol
//===----------------------------------------------------------------------===//

void Daemon::handleIngest(Fd Conn) {
  SocketReader In(Conn.get());
  SessionHandle *S = nullptr;
  bool Done = false;
  std::string Line;
  while (!Done && In.readLine(Line)) {
    // Split "VERB rest".
    size_t Sp = Line.find(' ');
    std::string Verb = Line.substr(0, Sp);
    std::string Rest = Sp == std::string::npos ? "" : Line.substr(Sp + 1);

    if (Verb == "OPEN") {
      if (S) {
        writeAll(Conn.get(), "ERR session already open on this connection\n");
        continue;
      }
      ClientSet Clients = Mgr->baseConfig().Clients;
      if (!Rest.empty()) {
        if (Rest.rfind("clients=", 0) != 0) {
          writeAll(Conn.get(), "ERR expected OPEN [clients=LIST]\n");
          continue;
        }
        std::string Err;
        ClientSet Parsed;
        if (!parseClientSet(Rest.substr(8), Parsed, Err)) {
          writeAll(Conn.get(), "ERR " + Err + "\n");
          continue;
        }
        Clients = Parsed;
      }
      S = &Mgr->open(Clients);
      writeAll(Conn.get(), "OK id=" + std::to_string(S->id()) + "\n");
    } else if (Verb == "FEED") {
      uint64_t N = 0;
      if (!S) {
        writeAll(Conn.get(), "ERR no open session (send OPEN first)\n");
        continue;
      }
      if (!parseU64(Rest, N)) {
        // Framing is unrecoverable without the length; drop the link.
        writeAll(Conn.get(), "ERR expected FEED <nbytes>\n");
        break;
      }
      std::string Payload;
      if (!In.readExact(Payload, size_t(N)))
        break; // EOF mid-payload: the epilogue aborts the session.
      std::string Err;
      if (S->feed(std::move(Payload), Err))
        writeAll(Conn.get(), "OK\n");
      else
        writeAll(Conn.get(), "ERR " + Err + "\n");
    } else if (Verb == "DONE") {
      if (!S) {
        writeAll(Conn.get(), "ERR no open session (send OPEN first)\n");
        continue;
      }
      std::string Err;
      if (S->finish(Err))
        writeAll(Conn.get(),
                 "OK events=" + std::to_string(S->events()) +
                     " segments=" + std::to_string(S->segments()) + "\n");
      else
        writeAll(Conn.get(), "ERR " + Err + "\n");
      Done = true;
    } else if (Verb == "STATUS") {
      if (!S) {
        writeAll(Conn.get(), "ERR no open session (send OPEN first)\n");
        continue;
      }
      writeAll(Conn.get(),
               "OK id=" + std::to_string(S->id()) +
                   " state=" + sessionStateName(S->state()) +
                   " bytes=" + std::to_string(S->bytesFed()) +
                   " events=" + std::to_string(S->events()) +
                   " segments=" + std::to_string(S->segments()) + "\n");
    } else if (Verb.empty()) {
      continue; // Tolerate blank lines.
    } else {
      writeAll(Conn.get(), "ERR unknown command '" + Verb + "'\n");
    }
  }
  // A connection that drops before DONE takes its session with it: a
  // half-streamed profile must never fold into the report.
  if (S && !Done)
    Mgr->abort(*S, "connection closed before DONE");
}

//===----------------------------------------------------------------------===//
// HTTP
//===----------------------------------------------------------------------===//

void Daemon::httpReply(int RawFd, int Code, const char *CodeText,
                       const std::string &ContentType,
                       const std::string &Body) {
  std::string Head = "HTTP/1.0 " + std::to_string(Code) + " " + CodeText +
                     "\r\nContent-Type: " + ContentType +
                     "\r\nContent-Length: " + std::to_string(Body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  writeAll(RawFd, Head);
  writeAll(RawFd, Body);
}

void Daemon::handleHttp(Fd Conn) {
  SocketReader In(Conn.get());
  std::string Request;
  if (!In.readLine(Request))
    return;
  if (!Request.empty() && Request.back() == '\r')
    Request.pop_back();
  // "GET /path HTTP/1.x" — the method and path are all we use; remaining
  // header lines are read lazily never (HTTP/1.0, close semantics).
  size_t Sp1 = Request.find(' ');
  size_t Sp2 = Request.find(' ', Sp1 == std::string::npos ? Sp1 : Sp1 + 1);
  if (Sp1 == std::string::npos || Sp2 == std::string::npos ||
      Request.substr(0, Sp1) != "GET") {
    httpReply(Conn.get(), 400, "Bad Request", "text/plain",
              "only GET is supported\n");
    return;
  }
  std::string Path = Request.substr(Sp1 + 1, Sp2 - Sp1 - 1);
  Mgr->bump("serve.http_requests");

  if (Path == "/healthz") {
    httpReply(Conn.get(), 200, "OK", "text/plain", "ok\n");
    return;
  }

  if (Path == "/report") {
    uint64_t Events = 0, NumSessions = 0;
    std::unique_ptr<ProfileSession> Folded =
        Mgr->foldClosed(Events, NumSessions);
    if (!Folded) {
      httpReply(Conn.get(), 404, "Not Found", "text/plain",
                "no completed sessions\n");
      return;
    }
    FrozenGraph FG(Folded->slicing()->graph());
    if (obs::MetricsRegistry *Stats = Folded->stats())
      FG.accountStats(*Stats);
    StringOutStream OS;
    renderReplayReport(Mod, *Folded, FG, Events, NumSessions, Cfg.Spec, OS);
    if (!OptimizerSection.empty())
      OS << "\n" << OptimizerSection;
    httpReply(Conn.get(), 200, "OK", "text/plain", OS.str());
    return;
  }

  if (Path == "/stats") {
    StringOutStream OS;
    Mgr->statsJson(OS);
    httpReply(Conn.get(), 200, "OK", "application/json", OS.str());
    return;
  }

  if (Path == "/sessions") {
    std::string Body = "[";
    bool First = true;
    for (SessionHandle *S : Mgr->sessions()) {
      if (!First)
        Body += ",";
      First = false;
      Body += "\n  {\"id\": " + std::to_string(S->id()) +
              ", \"state\": \"" + sessionStateName(S->state()) +
              "\", \"clients\": \"" + clientSetName(S->clients()) +
              "\", \"bytes\": " + std::to_string(S->bytesFed()) +
              ", \"events\": " + std::to_string(S->events()) +
              ", \"segments\": " + std::to_string(S->segments());
      std::string Err = S->error();
      if (!Err.empty()) {
        Body += ", \"error\": \"";
        jsonEscape(Err, Body);
        Body += "\"";
      }
      Body += "}";
    }
    Body += First ? "]\n" : "\n]\n";
    httpReply(Conn.get(), 200, "OK", "application/json", Body);
    return;
  }

  httpReply(Conn.get(), 404, "Not Found", "text/plain",
            "unknown path " + Path + "\n");
}

//===----------------------------------------------------------------------===//
// Sweeper
//===----------------------------------------------------------------------===//

void Daemon::sweeper() {
  std::unique_lock<std::mutex> Lock(SweepMu);
  while (!Stopping) {
    // Idle sessions are evicted once a second.
    SweepCV.wait_for(Lock, std::chrono::seconds(1));
    if (Stopping)
      return;
    Mgr->evictIdle();
  }
}
