//===- workloads/Render.h - The one report-section renderer ----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one place report sections are rendered. `lud-run` (live),
/// `lud-replay`, `lud-serve`'s GET /report and `lud-analyze` all call these
/// functions rather than owning format strings, so the same folded session
/// prints byte-identical text wherever it is shown.
///
/// The renderer is split by section, not by tool: every caller strings the
/// same pieces together in its own order. lud-run prints the optimizer's
/// section between the analysis sections and the bloat metrics; the daemon
/// appends it after them.
///
/// The replay summary prints the sealed FrozenGraph footprint ("sealed X
/// KB"): unlike the mutable DepGraph's capacity-dependent number, the
/// sealed CSR footprint is a pure function of the graph's contents, hence
/// identical however the sessions were buffered on the way in.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_WORKLOADS_RENDER_H
#define LUD_WORKLOADS_RENDER_H

#include "analysis/Clients.h"

#include <cstdint>
#include <string_view>

namespace lud {

class Module;
class OutStream;
class ProfileSession;
class FrozenGraph;

/// Which report sections to render; client sections follow the session's
/// own ClientSet.
struct ReportSpec {
  bool Report = false;
  bool Overwrites = false;
  bool Predicates = false;
  bool Methods = false;
  bool Caches = false;
  bool Dead = false;
  ClientOptions Client;
};

/// The two-line replay summary: events/trace counts and the Gcost size
/// line ("Gcost: N nodes, E edges, sealed X KB, CR c").
void renderReplaySummary(const ProfileSession &S, const FrozenGraph &FG,
                         uint64_t Events, uint64_t NumTraces, OutStream &OS);

/// The "===" analysis sections, in this order: low-utility report,
/// overwrites, constant predicates, method costs, cache effectiveness, then
/// the session's client sections. Builds one CostModel over \p FG. \p S is
/// null for an offline graph, which has no profiler state: the overwrite,
/// predicate and client sections need a session.
void renderAnalysisSections(const Module &M, const ProfileSession *S,
                            const FrozenGraph &FG, const ReportSpec &Spec,
                            OutStream &OS);

/// The "=== bloat metrics ===" section, relative to \p ExecutedInstrs (the
/// run's count live, the graph's frequency total offline). \p Qualifier,
/// when set, is appended to the title in parentheses.
void renderBloatMetrics(const FrozenGraph &FG, uint64_t ExecutedInstrs,
                        OutStream &OS, std::string_view Qualifier = {});

/// Summary, analysis sections and (when requested) bloat metrics — the
/// whole replayed report, as lud-replay prints it and GET /report serves it.
void renderReplayReport(const Module &M, const ProfileSession &S,
                        const FrozenGraph &FG, uint64_t Events,
                        uint64_t NumTraces, const ReportSpec &Spec,
                        OutStream &OS);

} // namespace lud

#endif // LUD_WORKLOADS_RENDER_H
