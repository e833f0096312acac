//===- analysis/CostModel.h - Relative abstract costs/benefits -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The cost side of the paper (Section 2.2 and 3.1):
///   - abstract cost (Definition 4): total frequency of the backward slice;
///   - HRAC (Definition 5): single-hop heap-relative abstract cost — the
///     stack work since the last heap reads;
///   - HRAB (Definition 6): the forward dual — the stack work done with the
///     value before it is written back into the heap;
///   - RAC/RAB per abstract heap location (mean over its writers/readers);
///   - n-RAC / n-RAB (Definition 7): aggregation over an object reference
///     tree of bounded height (default n = 4, the HashSet chain length).
///
/// The model reads the sealed graph representation (profiling/FrozenGraph.h):
/// closures stream CSR adjacency and SoA attribute columns, and the
/// per-node memo/visited state is dense arrays indexed by NodeId, so the
/// traversals stay cache-resident at the paper's 139K-860K node scale.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_COSTMODEL_H
#define LUD_ANALYSIS_COSTMODEL_H

#include "profiling/FrozenGraph.h"

#include <span>
#include <unordered_map>
#include <vector>

namespace lud {

/// HRAB plus consumption flags (Section 3.1's "special treatment" inputs).
struct BenefitInfo {
  uint64_t Benefit = 0;
  /// The value can flow into a branch condition.
  bool ReachesPredicate = false;
  /// The value can flow into a native call (program output).
  bool ReachesNative = false;
};

/// Per-abstract-location relative cost/benefit (Definitions 5/6 averaged
/// over the location's writer/reader nodes).
struct LocCostBenefit {
  double Rac = 0;
  double Rab = 0;
  uint64_t NumWriters = 0;
  uint64_t NumReaders = 0;
  bool ReachesPredicate = false;
  bool ReachesNative = false;
};

/// Definition 7 aggregates over the reference tree.
struct ObjectCostBenefit {
  double NRac = 0;
  double NRab = 0;
  uint64_t FieldsCounted = 0;
  uint64_t TreeObjects = 0;
  bool ReachesPredicate = false;
  bool ReachesNative = false;
};

/// Query object over a sealed Gcost. All traversal results are memoized;
/// the graph must outlive the model.
class CostModel {
public:
  explicit CostModel(const FrozenGraph &G);

  const FrozenGraph &graph() const { return G; }

  /// Definition 4: sum of frequencies of all nodes that reach \p N
  /// (including N itself).
  uint64_t abstractCost(NodeId N) const;

  /// Definition 5: like abstractCost but traversal refuses to enter
  /// heap-reading nodes — one heap-to-heap hop of stack work.
  uint64_t hrac(NodeId N) const;

  /// Definition 6: forward dual of hrac; traversal refuses to enter
  /// heap-writing nodes. Also reports consumer reachability.
  const BenefitInfo &hrab(NodeId N) const;

  /// RAC/RAB for one abstract heap location: the one at universe index
  /// \p I of the graph (FrozenGraph::locIndexOf).
  LocCostBenefit locCostBenefitAt(uint32_t I) const;

  /// n-RAC and n-RAB for the object(s) tagged \p RootTag, aggregating field
  /// RAC/RABs over the reference tree of height \p Depth (cycles cut).
  ObjectCostBenefit objectCostBenefit(uint64_t RootTag, unsigned Depth) const;

  /// The universe indices (FrozenGraph::loc) of every field observed
  /// (written or read) on objects tagged \p Tag, by ascending slot.
  std::span<const uint32_t> fieldsOf(uint64_t Tag) const;

  /// Tags whose allocations the graph recorded, in deterministic order.
  std::vector<uint64_t> allTags() const;

private:
  const FrozenGraph &G;
  /// Universe indices of the observed fields, grouped by tag (a tag's
  /// locations are contiguous in the universe), and tag -> its run in
  /// FieldLocs as [begin, end).
  std::vector<uint32_t> FieldLocs;
  std::unordered_map<uint64_t, std::pair<uint32_t, uint32_t>> FieldsByTag;
  /// Dense per-node memo columns; Valid bitmaps gate them (a saturated
  /// cost is a legal value, so no sentinel encoding).
  mutable std::vector<uint64_t> HracCache;
  mutable std::vector<uint8_t> HracValid;
  mutable std::vector<BenefitInfo> HrabCache;
  mutable std::vector<uint8_t> HrabValid;
  /// Epoch-stamped visited marks: a closure bumps the epoch instead of
  /// clearing N bytes per query.
  mutable std::vector<uint32_t> VisitMark;
  mutable uint32_t VisitEpoch = 0;
  mutable std::vector<NodeId> WorkScratch;
};

} // namespace lud

#endif // LUD_ANALYSIS_COSTMODEL_H
