//===- bench/BenchUtil.h - Shared benchmark harness helpers ----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Helpers shared by the per-table benchmark binaries: default scales, row
/// formatting, and repeated-run timing (minimum of K runs, to de-noise the
/// overhead factors).
///
//===----------------------------------------------------------------------===//

#ifndef LUD_BENCH_BENCHUTIL_H
#define LUD_BENCH_BENCHUTIL_H

#include "obs/Metrics.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <system_error>

namespace lud {
namespace bench {

/// Workload scale for the table reproductions; override with LUD_SCALE. A
/// value that is not a whole positive integer ("12abc", "", "0", overflow)
/// exits 2 with a diagnostic rather than running at a truncated scale.
inline int64_t tableScale() {
  const char *E = std::getenv("LUD_SCALE");
  if (!E)
    return 2000;
  const char *End = E + std::strlen(E);
  int64_t Scale = 0;
  auto [Ptr, Ec] = std::from_chars(E, End, Scale);
  if (Ec != std::errc() || Ptr != End || Scale < 1) {
    errs() << "LUD_SCALE='" << E << "' is not a positive integer\n";
    std::exit(2);
  }
  return Scale;
}

/// Machine-readable table output: when `--json` is on the command line or
/// LUD_BENCH_JSON is set, each table row is also appended as a one-line
/// JSON object `{name, scale, engine, seconds, nodes, edges}` to
/// BENCH_results.json (or to the file LUD_BENCH_JSON names, when its value
/// is a path rather than "1"). Appending lets a CI job accumulate rows
/// from several bench binaries into one file. `engine` is the execution
/// backend the row measured — the session default (LUD_ENGINE) unless the
/// bench pinned one explicitly. A rows file that cannot be opened exits 2.
inline bool &jsonRowsEnabled() {
  static bool On = std::getenv("LUD_BENCH_JSON") != nullptr;
  return On;
}

inline const char *jsonRowsPath() {
  const char *E = std::getenv("LUD_BENCH_JSON");
  if (E && *E && std::strcmp(E, "1") != 0)
    return E;
  return "BENCH_results.json";
}

/// Enables row emission if `--json` is present, and strips it from argv so
/// benchmark::Initialize never sees the unknown flag.
inline void initJsonRows(int *Argc, char **Argv) {
  int W = 1;
  for (int I = 1; I < *Argc; ++I) {
    if (std::strcmp(Argv[I], "--json") == 0) {
      jsonRowsEnabled() = true;
      continue;
    }
    Argv[W++] = Argv[I];
  }
  *Argc = W;
}

/// Opens \p Path for appending, or exits 2 naming it: a bench asked to
/// write its output somewhere must not finish without it.
inline FILE *openOrExit(const char *Path) {
  FILE *F = std::fopen(Path, "a");
  if (!F) {
    errs() << "cannot write '" << Path << "': " << std::strerror(errno)
           << "\n";
    std::exit(2);
  }
  return F;
}

inline void emitJsonRow(const std::string &Name, int64_t Scale,
                        double Seconds, size_t Nodes, size_t Edges,
                        EngineKind Engine = defaultEngineKind()) {
  if (!jsonRowsEnabled())
    return;
  FILE *F = openOrExit(jsonRowsPath());
  std::fprintf(F,
               "{\"name\": \"%s\", \"scale\": %lld, \"engine\": \"%s\", "
               "\"seconds\": %.6f, \"nodes\": %zu, \"edges\": %zu}\n",
               Name.c_str(), (long long)Scale, engineKindName(Engine), Seconds,
               Nodes, Edges);
  std::fclose(F);
}

/// Telemetry export for the bench binaries. `--stats[=text|json|csv]` (or
/// the LUD_STATS env var, same values) makes the table passes run their
/// sessions with CollectStats on and dump the merged "lud.stats.v1"
/// registry; `--stats-out=FILE` (or LUD_STATS_OUT) appends to FILE instead
/// of stdout, so a CI job can collect registries from several binaries in
/// one artifact. The format parser and writer are the tools' own
/// (obs/Metrics.h); an unknown format exits 2 with their diagnostic rather
/// than silently falling back to text.
inline obs::StatsFormat statsFormatOrExit(const char *V) {
  obs::StatsFormat F = obs::StatsFormat::Off;
  if (!obs::parseStatsFormat(V, F))
    std::exit(2);
  return F;
}

inline obs::StatsFormat &statsFormat() {
  static obs::StatsFormat F =
      std::getenv("LUD_STATS") ? statsFormatOrExit(std::getenv("LUD_STATS"))
                               : obs::StatsFormat::Off;
  return F;
}

inline std::string &statsOutPath() {
  static std::string Path =
      std::getenv("LUD_STATS_OUT") ? std::getenv("LUD_STATS_OUT") : "";
  return Path;
}

inline bool statsEnabled() { return statsFormat() != obs::StatsFormat::Off; }

/// Parses and strips `--stats[=text|json|csv]` / `--stats-out=FILE` from
/// argv so benchmark::Initialize never sees them (mirrors initJsonRows).
inline void initStats(int *Argc, char **Argv) {
  statsFormat(); // Rejects a bad LUD_STATS before any work starts.
  int W = 1;
  for (int I = 1; I < *Argc; ++I) {
    const char *A = Argv[I];
    if (std::strcmp(A, "--stats") == 0) {
      statsFormat() = obs::StatsFormat::Text;
      continue;
    }
    if (std::strncmp(A, "--stats=", 8) == 0) {
      statsFormat() = statsFormatOrExit(A + 8);
      continue;
    }
    if (std::strncmp(A, "--stats-out=", 12) == 0) {
      statsOutPath() = A + 12;
      continue;
    }
    Argv[W++] = Argv[I];
  }
  *Argc = W;
}

/// Appends \p S's registry to --stats-out (or prints it to stdout) in the
/// requested format. No-op when stats are off or the session collected none;
/// exits 2 when --stats-out cannot be opened.
inline void emitStats(const ProfileSession &S) {
  if (!statsEnabled() || !S.stats())
    return;
  std::FILE *F = statsOutPath().empty() ? stdout
                                         : openOrExit(statsOutPath().c_str());
  FileOutStream OS(F);
  obs::writeStats(*S.stats(), statsFormat(), OS);
  if (F != stdout)
    std::fclose(F);
}

/// Uninstrumented run through the session lifecycle — the spelling of the
/// retired runBaseline() free function, for the bench binaries.
inline TimedRun baselineRun(const Module &M, RunConfig RC = {}) {
  ProfileSession S(SessionConfig::baseline(RC));
  return S.run(M);
}

/// Substrate-only profiled run through the session lifecycle — the
/// spelling of the retired runProfiled() free function.
inline ProfiledRun profiledRun(const Module &M, SlicingConfig SCfg = {},
                               RunConfig RC = {}) {
  ProfileSession S(SessionConfig::profiled(SCfg, RC));
  TimedRun T = S.run(M);
  ProfiledRun Out;
  Out.Run = T.Run;
  Out.Seconds = T.Seconds;
  Out.Prof = S.takeSlicing();
  return Out;
}

/// Minimum wall time over \p Reps baseline runs (de-noised).
inline double baselineSeconds(const Module &M, int Reps = 3) {
  double Best = 1e100;
  for (int I = 0; I != Reps; ++I) {
    TimedRun R = baselineRun(M);
    if (R.Seconds < Best)
      Best = R.Seconds;
  }
  return Best;
}

} // namespace bench
} // namespace lud

#endif // LUD_BENCH_BENCHUTIL_H
