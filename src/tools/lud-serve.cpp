//===- tools/lud-serve.cpp - Always-on profiling service -------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The profiling daemon and its command-line client, in one binary:
///
///   # Serve: accept streamed lud.run.v1 manifests for program.lud over
///   # a unix socket, re-execute them, answer reports over local HTTP.
///   lud-serve --socket=/tmp/lud.sock --report --clients=all program.lud
///   lud-serve --workload=composed --scale=60 --workers=4
///
///   # Stream recorded manifests into a running daemon, one session per
///   # file, one record per frame, interleaved round-robin across the
///   # sessions.
///   lud-serve --send --socket=/tmp/lud.sock a.run b.run
///
///   # Fetch a report / telemetry from a running daemon.
///   lud-serve --get=/report --http-port=8844
///
/// GET /report is byte-identical to `lud-replay <flags> program.lud
/// a.run b.run` with the matching report flags — the daemon folds its
/// closed sessions with the same deterministic merge, whatever the worker
/// count or frame interleaving. Protocol details: docs/SERVICE.md.
///
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Daemon.h"
#include "support/OutStream.h"
#include "tools/AnalysisRequest.h"
#include "tools/ProgramSource.h"
#include "trace/RunManifest.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace lud;

namespace {

struct Options {
  cli::ProgramSource Src;
  cli::AnalysisRequest Req;
  std::string SocketPath = "/tmp/lud-serve.sock";
  uint16_t HttpPort = 0;
  unsigned Workers = 4;
  bool Optimize = false;
  int64_t MaxSessionBytes = int64_t(serve::SessionLimits().MaxSessionBytes);
  int64_t IdleTimeout = 0;
  bool Send = false;
  std::string GetPath;
};

void declareOptions(cli::OptionSet &P, Options &O) {
  P.str("--socket", O.SocketPath,
        "PATH  unix socket for manifest ingest (default "
        "/tmp/lud-serve.sock)");
  P.number("--http-port", O.HttpPort,
           "N  HTTP port on 127.0.0.1 (default 0 = pick a free port)",
           /*Min=*/0);
  P.number("--workers", O.Workers,
           "N  FEED frames re-executed at once across all sessions "
           "(default 4; with --clients each takes two more threads while "
           "the free cores cover two per busy worker, one while a core is "
           "free)",
           /*Min=*/1);
  O.Req.declare(P, cli::AnalysisRequest::SectionOpts |
                       cli::AnalysisRequest::ClientOpts |
                       cli::AnalysisRequest::SlotOpts |
                       cli::AnalysisRequest::ShapeOpts);
  P.flag("--optimize", O.Optimize,
         "run the rewrite-pass pipeline at startup; /report gains the "
         "optimizer section and /stats the opt.* metrics");
  P.number("--max-session-bytes", O.MaxSessionBytes,
           "N  per-session ingest quota in bytes", /*Min=*/1);
  P.number("--idle-timeout", O.IdleTimeout,
           "SEC  evict sessions idle this long (default 0 = never)",
           /*Min=*/0);
  O.Src.declare(P, cli::ProgramSource::WorkloadOpts);
  P.flag("--send", O.Send,
         "stream the manifest operands into a running daemon and exit");
  P.str("--get", O.GetPath,
        "PATH  fetch PATH (e.g. /report) from a running daemon and exit");
}

/// --send: one session per manifest operand, one record per frame, fed
/// round-robin across the sessions so the daemon demonstrably does not
/// care about interleaving.
int sendMain(const Options &O, const std::vector<std::string> &Manifests) {
  struct Stream {
    std::string Path;
    std::string Bytes;
    std::vector<std::string_view> Records;
    size_t Next = 0;
    serve::ServeClient Client;
    bool Dead = false;
    std::string Err;
  };
  std::vector<Stream> Streams(Manifests.size());
  for (size_t I = 0; I != Manifests.size(); ++I) {
    Stream &S = Streams[I];
    S.Path = Manifests[I];
    if (!readFileBytes(S.Path, S.Bytes)) {
      errs() << "cannot read '" << S.Path << "'\n";
      return 1;
    }
    // An empty file still goes out as one (empty) frame, so the daemon
    // reports it as it reports any other bad manifest.
    S.Records = trace::splitRecords(S.Bytes);
    if (S.Records.empty())
      S.Records.push_back(S.Bytes);
    std::string Err;
    if (!S.Client.connect(O.SocketPath, Err) ||
        (O.Req.Clients.any() ? !S.Client.open(O.Req.Clients, Err)
                             : !S.Client.open(Err))) {
      errs() << S.Path << ": " << Err << "\n";
      return 1;
    }
  }
  // Round-robin until every stream has shipped all its records; a
  // session the daemon failed stops eating frames but the others
  // continue — per-session isolation, observed from the client side.
  for (bool Progress = true; Progress;) {
    Progress = false;
    for (Stream &S : Streams) {
      if (S.Dead || S.Next >= S.Records.size())
        continue;
      Progress = true;
      if (!S.Client.feed(std::string(S.Records[S.Next++]) + "\n", S.Err))
        S.Dead = true;
    }
  }
  int Rc = 0;
  for (Stream &S : Streams) {
    std::string Err;
    if (!S.Dead && S.Client.done(Err)) {
      outs() << S.Path << ": session " << S.Client.id() << " closed, "
             << S.Client.events() << " events, " << S.Client.segments()
             << " segments\n";
    } else {
      errs() << S.Path << ": " << (S.Dead ? S.Err : Err) << "\n";
      Rc = 1;
    }
    S.Client.close();
  }
  return Rc;
}

} // namespace

int main(int argc, char **argv) {
  Options O;
  cli::OptionSet Cli("lud-serve", "<program.lud> | --send <manifest>...");
  declareOptions(Cli, O);
  if (!Cli.parse(argc, argv)) {
    Cli.usage();
    return 2;
  }
  if (Cli.exitRequested())
    return 0;

  if (!O.GetPath.empty()) {
    if (O.HttpPort == 0) {
      errs() << "--get needs --http-port\n";
      return 2;
    }
    std::string Body, Err;
    if (!serve::httpGet(O.HttpPort, O.GetPath, Body, Err)) {
      errs() << "lud-serve: " << Err << "\n";
      return 1;
    }
    outs() << Body;
    return 0;
  }

  if (O.Send) {
    if (Cli.positionals().empty()) {
      errs() << "--send expects at least one manifest file\n";
      return 2;
    }
    return sendMain(O, Cli.positionals());
  }

  // Daemon mode: the module every session replays against.
  if (O.Src.Workload.empty() && Cli.positionals().size() != 1) {
    errs() << "expected exactly one program file (or --workload)\n";
    Cli.usage();
    return 2;
  }
  if (!Cli.positionals().empty())
    O.Src.File = Cli.positionals()[0];
  int LoadRc = 0;
  std::unique_ptr<Module> M = O.Src.load(LoadRc);
  if (!M)
    return LoadRc;

  serve::DaemonConfig DCfg;
  DCfg.SocketPath = O.SocketPath;
  DCfg.HttpPort = O.HttpPort;
  DCfg.Workers = O.Workers;
  DCfg.Base = O.Req.sessionConfig();
  DCfg.Limits.MaxSessionBytes = uint64_t(O.MaxSessionBytes);
  DCfg.Limits.IdleEvictSeconds = double(O.IdleTimeout);
  DCfg.Spec = O.Req.Spec;
  DCfg.Optimize = O.Optimize;

  serve::Daemon D(*M, std::move(DCfg));
  std::string Err;
  if (!D.start(Err)) {
    errs() << "lud-serve: " << Err << "\n";
    return 1;
  }
  outs() << "lud-serve: ingest on " << D.socketPath() << "\n";
  outs() << "lud-serve: http on 127.0.0.1:" << uint64_t(D.httpPort())
         << "\n";
  std::fflush(stdout); // Smoke scripts tail the log for these lines.
  if (!D.serveForever(Err)) {
    errs() << "lud-serve: " << Err << "\n";
    return 1;
  }
  outs() << "lud-serve: shutting down\n";
  return 0;
}
