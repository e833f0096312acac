//===- analysis/CacheCost.h - Cache-effectiveness analysis -----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cache redefinition of cost and benefit the paper proposes as future
/// work (Sections 3.2 and 6): when a structure is *meant* to memoize, its
/// cost should count only the instructions that build the structure itself
/// (spine stores, allocation), not the computation of the cached values —
/// and its benefit is the recomputation work those values save, i.e. the
/// value-production cost times the number of reuses beyond the first.
///
///   SpineCost(site)   = alloc instances + store instances into the
///                       structure (the caching overhead)
///   CachedWork(field) = RAC of the field (work to produce one value)
///   SavedWork(field)  = CachedWork * max(reads - writes, 0)
///   Effectiveness     = sum SavedWork / SpineCost
///
/// Structures with effectiveness < 1 pay more to cache than they save: the
/// "inappropriately-used caches" the paper wants surfaced.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_CACHECOST_H
#define LUD_ANALYSIS_CACHECOST_H

#include "analysis/CostModel.h"
#include "ir/Ids.h"

#include <string>
#include <vector>

namespace lud {

class Module;
class OutStream;

struct CacheScore {
  AllocSiteId Site = kNoAllocSite;
  std::string Description;
  /// Instances spent building/maintaining the structure itself.
  double SpineCost = 0;
  /// Recomputation work saved by reads beyond the first per value.
  double SavedWork = 0;
  /// SavedWork / SpineCost; < 1 means the cache costs more than it saves.
  double Effectiveness = 0;
  uint64_t Writes = 0;
  uint64_t Reads = 0;
};

/// Scores every allocation site with at least 4 stores (fewer are too
/// small to judge) as if it were a cache, least effective first. Use
/// together with the low-utility report: a structure that is cheap by
/// Definition 5 but scores badly here is a bad memoization choice.
std::vector<CacheScore> rankCacheEffectiveness(const CostModel &CM,
                                               const Module &M);

/// Prints the top \p TopK rows.
void printCacheScores(const std::vector<CacheScore> &Rows, OutStream &OS,
                      size_t TopK = 10);

} // namespace lud

#endif // LUD_ANALYSIS_CACHECOST_H
