//===- tools/AnalysisRequest.h - Shared analysis options -------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// What a tool analyzes and how it reports it: the report sections, the
/// client analyses, the profiler's context slots, the engine, the report
/// shape (--depth, --top), the Gcost dump and the telemetry output. Each
/// option is declared here once; a tool picks the groups it supports, so
/// `--stats=yaml` or `--top=2x` gets the same diagnostic in every tool.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TOOLS_ANALYSISREQUEST_H
#define LUD_TOOLS_ANALYSISREQUEST_H

#include "obs/Metrics.h"
#include "tools/CliOptions.h"
#include "workloads/Driver.h"
#include "workloads/Render.h"

#include <string>

namespace lud {

class FrozenGraph;

namespace cli {

struct AnalysisRequest {
  /// Option groups, for declare().
  enum Group : unsigned {
    /// --report --dead --overwrites --predicates --methods --caches --all
    SectionOpts = 1u << 0,
    /// --clients
    ClientOpts = 1u << 1,
    /// --slots
    SlotOpts = 1u << 2,
    /// --engine
    EngineOpts = 1u << 3,
    /// --depth --top
    ShapeOpts = 1u << 4,
    /// --dump-graph
    DumpOpts = 1u << 5,
    /// --stats --stats-out
    StatsOpts = 1u << 6,
    AllOpts = (1u << 7) - 1,
  };

  ReportSpec Spec;
  ClientSet Clients;
  int64_t Slots = 16;
  EngineKind Engine = defaultEngineKind();
  std::string DumpGraph;
  obs::StatsFormat Stats = obs::StatsFormat::Off;
  std::string StatsOut;

  AnalysisRequest() = default;
  // declare() binds the options to this object's address.
  AnalysisRequest(const AnalysisRequest &) = delete;
  AnalysisRequest &operator=(const AnalysisRequest &) = delete;

  /// Declares the options of every group in \p Groups on \p P, in a fixed
  /// order, storing into this request.
  void declare(OptionSet &P, unsigned Groups);

  /// Engine, context slots, clients and telemetry collection for a
  /// profiling (or replaying) session.
  SessionConfig sessionConfig() const;

  /// Serializes \p FG to --dump-graph's file and notes it on \p OS; a no-op
  /// without --dump-graph. False after a diagnostic on a write error.
  bool dumpGraph(const FrozenGraph &FG, OutStream &OS) const;

  /// Writes \p R in the --stats format to --stats-out or stdout; a no-op
  /// without --stats or without a registry. Timing metrics are included —
  /// this is the human/CI surface, not the determinism-test surface.
  bool emitStats(const obs::MetricsRegistry *R) const;
};

} // namespace cli
} // namespace lud

#endif // LUD_TOOLS_ANALYSISREQUEST_H
