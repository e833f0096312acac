//===- analysis/Report.h - Low-utility data structure ranking --*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The relative object cost-benefit analysis of Section 3: every allocation
/// site is scored with the n-RAC / n-RAB of its data structure (aggregated
/// over contexts), and sites are ranked by cost-benefit imbalance. This is
/// the report a programmer reads to find low-utility structures; the six
/// case-study benchmarks assert the planted structures rank at the top.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_REPORT_H
#define LUD_ANALYSIS_REPORT_H

#include "analysis/Clients.h"
#include "analysis/CostModel.h"
#include "ir/Ids.h"
#include "profiling/ClientSet.h"

#include <string>
#include <vector>

namespace lud {

class Module;
class OutStream;

/// The "large RAB" that ConsumerWeight::Large adds.
constexpr double kLargeBenefit = 1e4;

/// Weight applied to a field whose value reaches a consumer of the given
/// kind (Section 1's weighted benefit; Section 3.1's special treatment).
enum class ConsumerWeight : uint8_t {
  /// Consumer reachability adds no benefit.
  Zero,
  /// Adds kLargeBenefit to the structure's n-RAB.
  Large,
  /// The structure can never be low-utility (ratio forced to 0).
  Infinite,
};

struct ReportOptions {
  /// Reference-tree height n of Definition 7. The paper uses 4 (the chain
  /// length of the most complex JDK container, HashSet).
  unsigned Depth = 4;
  /// Benefit weight when a field's value reaches a branch condition.
  ConsumerWeight PredicateWeight = ConsumerWeight::Large;
  /// Benefit weight when a field's value reaches a native (program
  /// output). Section 1 assigns output-reaching values infinite weight;
  /// the default here is Large because the report aggregates per
  /// allocation site: one output-reaching instance would otherwise grant
  /// amnesty to thousands of wasted ones (e.g. the sunflow clone chain,
  /// whose final clone is rendered). Set to Infinite for strict Section 1
  /// weighting.
  ConsumerWeight NativeWeight = ConsumerWeight::Large;
  /// Ignore sites whose total n-RAC is below this (noise floor).
  double MinCost = 1.0;
};

/// One ranked allocation site.
struct SiteScore {
  AllocSiteId Site = kNoAllocSite;
  std::string Description;
  /// Sums over this site's context-annotated tags.
  double NRac = 0;
  double NRab = 0;
  /// NRac / NRab after consumer weighting; the ranking key. Structures
  /// whose fields are never read score NRac / epsilon.
  double Ratio = 0;
  uint64_t Writes = 0;
  uint64_t Reads = 0;
  uint32_t NumContexts = 0;
  bool ReachesPredicate = false;
  bool ReachesNative = false;
};

/// The full ranking, most suspicious first.
class LowUtilityReport {
public:
  /// Builds the ranking from a finished cost model. \p M must be the module
  /// the graph was profiled from (for site descriptions and field names).
  LowUtilityReport(const CostModel &CM, const Module &M,
                   ReportOptions Opts = {});

  const std::vector<SiteScore> &sites() const { return Sites; }
  const ReportOptions &options() const { return Opts; }

  /// Rank (0-based) of \p Site in the report, or -1 if absent.
  int rankOf(AllocSiteId Site) const;

  /// Writes the top \p TopK rows as a table.
  void print(OutStream &OS, size_t TopK = 20) const;

  /// Restricts the ranking to sites allocating one of \p Classes — the
  /// "problematic collections" client of Section 3.2.
  std::vector<SiteScore>
  filterByClass(const Module &M, const std::vector<ClassId> &Classes) const;

private:
  ReportOptions Opts;
  std::vector<SiteScore> Sites;
};

//===----------------------------------------------------------------------===
// Per-client report sections (Section 3.2's diagnosis clients). These render
// the client profilers' findings uniformly for every consumer of a profile
// session — the CLI's --clients sections, examples, and tests compare their
// output byte for byte between single-pass and separate-pass runs.
//===----------------------------------------------------------------------===

class CopyProfiler;
class NullnessProfiler;
class TypestateProfiler;

/// Heap-to-heap copy chains with their intermediate stack hops, highest
/// copy count first (Figure 2(c)).
void printCopyChains(const CopyProfiler &P, const Module &M, OutStream &OS,
                     size_t TopK = 10);

/// The recorded null-propagation flow from origin to dereference, if a
/// null-dereference trap fired (Figure 2(a)).
void printNullPropagation(const NullnessProfiler &P, const Module &M,
                          OutStream &OS);

/// The merged typestate event history and protocol violations
/// (Figure 2(b)).
void printTypestateFindings(const TypestateProfiler &P, const Module &M,
                            OutStream &OS, size_t TopK = 10);

/// Overwrite ranking table (rankOverwrites rows), worst offender first.
void printOverwrites(const std::vector<OverwriteRow> &Rows, OutStream &OS,
                     size_t TopK = 10);

/// Always-constant predicates (findConstantPredicates rows); "(none)" when
/// empty.
void printConstantPredicates(const std::vector<ConstantPredicateRow> &Rows,
                             OutStream &OS, size_t TopK = 10);

/// Method return-value costs (computeMethodCosts rows), costliest first.
void printMethodCosts(const std::vector<MethodCostRow> &Rows, OutStream &OS,
                      size_t TopK = 10);

/// Renders the enabled clients' "=== ... ===" headed report sections in
/// the canonical order (copy, nullness, typestate). A client's section
/// prints only when its bit is set in \p Clients AND its profiler pointer
/// is live, so an unprepared or partially configured session degrades to
/// fewer sections rather than a crash. ProfileSession::printClientReports
/// and the service's report renderer both route through this — the one
/// place the section headers are spelled.
void printClientSections(ClientSet Clients, const CopyProfiler *Copy,
                         const NullnessProfiler *Null,
                         const TypestateProfiler *Type, const Module &M,
                         OutStream &OS, size_t TopK = 15);

} // namespace lud

#endif // LUD_ANALYSIS_REPORT_H
