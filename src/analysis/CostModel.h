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
/// visited state is one epoch-stamped array indexed by NodeId, so the
/// traversals stay cache-resident at the paper's 139K-860K node scale.
///
/// HRAB walks a chain forest instead of every node of the closure. Long
/// value chains feed many readers, and a plain BFS from each reader walks
/// the whole chain again (5.2M visits over a 128K-node Gcost). On the
/// first hrab() the model links each node x to y when y is x's only
/// successor that does not write the heap; then closure(x) is {x} plus
/// closure(y). The links form an in-forest (a link that would close a
/// cycle of links is dropped). Per node the forest keeps a preorder index
/// in which each tree is one range, a skew-binary jump pointer, and the
/// frequency sum and predicate/native flags over the path to the root:
/// O(n) words, no sparse table, and no parent column (a tree node's
/// parent is its only unblocked successor). A closure query then expands
/// only tree roots and unlinked nodes: a tree node it reaches brings its
/// whole root path in O(1), and the entries that land in one tree are
/// unioned as a virtual tree over their preorder (the sum of their path
/// sums minus the path sums of consecutive LCAs). Closures may overlap a
/// tree without harm: the walk builds the union of root paths, never a
/// sum of closures.
///
/// Frequency sums saturate, and a difference of saturated prefix sums is
/// not exact, so a tree whose frequency total saturates is not linked:
/// its nodes are walked one by one, as the plain BFS does.
/// hrabReference() is that plain BFS, kept as the oracle the forest is
/// tested against. HRAC stays a BFS (its closures are short). Both memos
/// are hash maps over the nodes asked about, the readers and writers,
/// not columns over every node.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_COSTMODEL_H
#define LUD_ANALYSIS_COSTMODEL_H

#include "profiling/FrozenGraph.h"
#include "support/FlatMap.h"

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
  /// heap-writing nodes. Also reports consumer reachability. Walks the
  /// chain forest (see the file comment).
  BenefitInfo hrab(NodeId N) const;

  /// Definition 6 by a plain BFS over every node of the closure,
  /// unmemoized: the reference hrab() must equal. Adds the nodes it visits
  /// to \p Visits when given.
  BenefitInfo hrabReference(NodeId N, uint64_t *Visits = nullptr) const;

  /// Nodes the memoized hrab() queries have entered so far: deterministic
  /// for a graph and a query sequence.
  uint64_t hrabVisits() const { return HrabVisits; }

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
  /// Closure results by start node.
  mutable FlatMap<NodeId, uint64_t> HracMemo;
  mutable FlatMap<NodeId, BenefitInfo> HrabMemo;
  /// Epoch-stamped visited marks: a closure bumps the epoch instead of
  /// clearing N bytes per query.
  mutable std::vector<uint32_t> VisitMark;
  mutable uint32_t VisitEpoch = 0;
  mutable std::vector<NodeId> WorkScratch;

  /// HRAB's chain forest, built by the first hrab(). Pre is kNoPre for a
  /// node outside every tree (no link in or out, or a saturating tree); a
  /// root's Jump is itself. PathFreq/PathFlags are taken over the path
  /// from the node to its root, both ends included.
  static constexpr uint32_t kNoPre = ~uint32_t(0);
  struct ChainForest {
    std::vector<uint32_t> Pre;
    std::vector<NodeId> Jump;
    std::vector<uint64_t> PathFreq;
    std::vector<uint8_t> PathFlags;
  };
  void buildForest() const;
  NodeId forestLca(NodeId U, NodeId V) const;
  mutable ChainForest Forest;
  mutable bool ForestBuilt = false;
  mutable std::vector<NodeId> EntryScratch;
  mutable uint64_t HrabVisits = 0;
};

} // namespace lud

#endif // LUD_ANALYSIS_COSTMODEL_H
