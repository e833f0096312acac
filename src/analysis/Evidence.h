//===- analysis/Evidence.h - Per-structure usage evidence ------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The shared evidence layer of the rewrite-pass pipeline: folds the
/// cost-benefit model (Definitions 5-7), the overwrite counters (Section
/// 3.2), the dead-value classification (Table 1(c)) and the
/// cache-effectiveness scores into one per-structure UsageSummary record.
/// Each allocation site (and each static) gets its lifecycle totals —
/// build/read/overwrite phase counters, the read-after-last-write tail,
/// clone-per-op instance signatures — plus a coarse UsageKind
/// classification the rewrite passes gate on (docs/OPTIMIZER.md lists the
/// thresholds). The classification is *evidence*, not a proof: passes that
/// act on it must still validate the rewritten module output-preserving.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_EVIDENCE_H
#define LUD_ANALYSIS_EVIDENCE_H

#include "analysis/DeadValues.h"
#include "profiling/FrozenGraph.h"
#include "profiling/SlicingProfiler.h"

#include <string>
#include <vector>

namespace lud {

class Module;

/// Coarse lifecycle classification of one data structure.
enum class UsageKind : uint8_t {
  /// Written but never read — pure bloat (Table 1(c)'s D* shape).
  WriteOnly,
  /// Each value read at most about once: a memo table that never pays
  /// for itself (sunflow's bits cache).
  OnceRead,
  /// Most stores clobber values nothing observed (derby's metadata map,
  /// Section 3.2's rewritten-before-read pattern).
  OverwriteDominated,
  /// A build phase followed by a read-mostly phase: a candidate for a
  /// sorted-array representation (derby's page index).
  BuildOnceReadMany,
  /// Many short-lived instances with paired write/read volumes: the
  /// clone-per-operation accumulator shape (sunflow's Matrix chain).
  ClonePerOp,
  /// No dominant pattern, or too little evidence to say.
  Balanced,
};

/// Printable name ("once-read", "build-once-read-many", ...).
const char *usageKindName(UsageKind K);

/// Lifecycle evidence for one structure: an allocation site or a static.
struct UsageSummary {
  bool IsStatic = false;
  AllocSiteId Site = kNoAllocSite;
  GlobalId Global = kNoGlobal;
  /// Human-readable anchor ("new Matrix @ su.render", "static de_meta").
  std::string Description;
  /// Objects allocated at the site (sum of allocation-node frequencies).
  uint64_t Instances = 0;
  /// Abstract heap locations the structure contributed.
  uint64_t Locs = 0;
  uint64_t Writes = 0;
  uint64_t Reads = 0;
  /// Stores that clobbered a value no load observed.
  uint64_t Overwrites = 0;
  /// Reads after each location's final write (the read-only tail).
  uint64_t ReadsAfterLastWrite = 0;
  /// Instances of writers whose every profiled value was ultimately dead.
  uint64_t DeadWriteFreq = 0;
  /// n-RAC / n-RAB over the reference tree (Definition 7, depth 4).
  double Cost = 0;
  double Benefit = 0;
  /// SavedWork / SpineCost when scored as a cache; -1 when unscored
  /// (below rankCacheEffectiveness's 4-store floor).
  double CacheEffectiveness = -1;
  UsageKind Kind = UsageKind::Balanced;
};

/// Evidence for every structure of one profiled run.
struct UsageEvidence {
  /// Indexed by AllocSiteId (dense; unexecuted sites stay zeroed).
  std::vector<UsageSummary> Sites;
  /// Indexed by GlobalId.
  std::vector<UsageSummary> Statics;

  const UsageSummary *bySite(AllocSiteId S) const {
    return S < Sites.size() ? &Sites[S] : nullptr;
  }
};

/// Folds the profile clients over \p G, with its location activity, into
/// per-structure records. \p DV is optional (DeadWriteFreq stays 0
/// without it). \p G must be a whole-program profile of \p M.
UsageEvidence summarizeUsage(const Module &M, const FrozenGraph &G,
                             const DeadValueAnalysis *DV = nullptr);

} // namespace lud

#endif // LUD_ANALYSIS_EVIDENCE_H
