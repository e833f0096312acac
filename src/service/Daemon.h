//===- service/Daemon.h - The lud-serve profiling daemon -------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The always-on profiling service: a daemon that accepts any number of
/// concurrent manifest streams over a unix-domain socket — one session per
/// connection, length-framed `lud.run.v1` records — and serves the folded
/// report and `lud.stats.v1` telemetry over a minimal local HTTP endpoint.
/// Ingest and reporting both sit directly on the serve::SessionManager
/// lifecycle; the daemon adds only transport. The full wire protocol is
/// documented in docs/SERVICE.md.
///
/// Ingest protocol (text lines + raw payloads):
///
///   OPEN [clients=LIST]      -> OK id=N            | ERR <msg>
///   FEED <nbytes>\n<payload> -> OK                 | ERR <diagnostic>
///   DONE                     -> OK events=E segments=G | ERR <diagnostic>
///   STATUS                   -> OK id=N state=S bytes=B events=E segments=G
///
/// FEED payloads must contain whole records; each is re-executed against
/// the daemon's module and checked before FEED replies, and `segments`
/// counts the records. A connection that drops before DONE aborts its
/// session; a malformed or mismatched record fails only that session, with
/// the line-numbered replay diagnostic verbatim in the ERR reply to the
/// FEED that carried it (DONE repeats it).
///
/// HTTP (HTTP/1.0, loopback only): GET /report (the folded report,
/// byte-identical to lud-replay over the same streams), /stats
/// (lud.stats.v1 JSON), /sessions (JSON roster), /healthz.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SERVICE_DAEMON_H
#define LUD_SERVICE_DAEMON_H

#include "service/SessionManager.h"
#include "service/Socket.h"
#include "workloads/Render.h"

#include <atomic>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

namespace lud {
namespace serve {

struct DaemonConfig {
  /// Unix-domain socket path for manifest ingest.
  std::string SocketPath = "/tmp/lud-serve.sock";
  /// HTTP port on 127.0.0.1; 0 picks a free port (see Daemon::httpPort()).
  uint16_t HttpPort = 0;
  /// FEED frames the SessionManager re-executes at once, across all
  /// sessions.
  unsigned Workers = 4;
  /// Base configuration for every session (clients, slots, stats).
  SessionConfig Base;
  SessionLimits Limits;
  /// Sections GET /report renders.
  ReportSpec Spec;
  /// Run the rewrite-pass pipeline over the module at startup: /report
  /// gains the "=== Optimizer ===" section and /stats the opt.* metrics.
  bool Optimize = false;
};

/// One daemon instance: listeners, connection threads, and the session
/// manager they feed. start()/stop() are idempotent; serveForever() is
/// the tool entry point (blocks until SIGTERM/SIGINT).
class Daemon {
public:
  Daemon(const Module &M, DaemonConfig Cfg);
  ~Daemon();

  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  /// Binds both listeners and starts the accept/sweeper threads. False
  /// with \p Err set when a bind fails (daemon already running, bad
  /// path...).
  bool start(std::string &Err);

  /// Stops listening, kicks every in-flight connection loose, joins all
  /// threads. Safe to call twice; the destructor calls it.
  void stop();

  bool running() const { return Started && !Stopping; }
  /// The bound HTTP port (resolves HttpPort == 0).
  uint16_t httpPort() const { return BoundHttpPort; }
  const std::string &socketPath() const { return Cfg.SocketPath; }
  SessionManager &sessions() { return *Mgr; }

  /// start() + block until SIGTERM/SIGINT (self-pipe) + stop(). Returns
  /// false (with \p Err) when start fails.
  bool serveForever(std::string &Err);

private:
  void acceptLoop(int ListenFd, bool Http);
  void handleIngest(Fd Conn);
  void handleHttp(Fd Conn);
  void sweeper();
  void httpReply(int RawFd, int Code, const char *CodeText,
                 const std::string &ContentType, const std::string &Body);

  const Module &Mod;
  DaemonConfig Cfg;
  std::unique_ptr<SessionManager> Mgr;
  /// Rendered "=== Optimizer ===" section, cached at start() when
  /// Cfg.Optimize is set; appended to every /report.
  std::string OptimizerSection;

  Fd IngestListen;
  Fd HttpListen;
  uint16_t BoundHttpPort = 0;

  std::mutex ThreadsMu;
  std::vector<std::thread> Threads;
  std::set<int> ActiveConns; // Raw fds, for shutdown() at stop time.

  std::mutex SweepMu;
  std::condition_variable SweepCV;

  std::atomic<bool> Started{false};
  std::atomic<bool> Stopping{false};
};

} // namespace serve
} // namespace lud

#endif // LUD_SERVICE_DAEMON_H
