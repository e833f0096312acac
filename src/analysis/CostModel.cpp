//===- analysis/CostModel.cpp - Relative abstract costs/benefits -----------===//

#include "analysis/CostModel.h"

#include <algorithm>

using namespace lud;

CostModel::CostModel(const FrozenGraph &G) : G(G) {
  // The location universe is sorted by (Tag, Slot) and holds each
  // location once, so each tag's fields arrive as one run of ascending
  // slots.
  for (uint32_t I = 0; I != G.numLocs(); ++I) {
    if (G.writersAt(I).empty() && G.readersAt(I).empty())
      continue; // refchild-only location: not an observed field access.
    auto It = FieldsByTag
                  .try_emplace(G.loc(I).Tag, uint32_t(FieldLocs.size()),
                               uint32_t(FieldLocs.size()))
                  .first;
    FieldLocs.push_back(I);
    ++It->second.second;
  }
  const size_t N = G.numNodes();
  HracCache.resize(N);
  HracValid.assign(N, 0);
  HrabCache.resize(N);
  HrabValid.assign(N, 0);
  VisitMark.assign(N, 0);
}

namespace {

/// Frequency sums saturate instead of wrapping: a fuzzed program can pile
/// enough executions onto one closure that the uint64 accumulator
/// overflows, and a wrapped cost would rank a hot structure as nearly
/// free. Saturation keeps the ordering sane ("at least this expensive").
uint64_t saturatingAdd(uint64_t A, uint64_t B) {
  uint64_t S = A + B;
  return S < A ? ~uint64_t(0) : S;
}

} // namespace

/// Shared BFS worker over the CSR adjacency. Follows out() when Forward,
/// else in(). Neighbors for which \p Blocked returns true are neither
/// counted nor expanded. Returns the frequency sum over visited nodes
/// (start included) and invokes \p OnVisit for each visited node. Visited
/// state is the epoch-stamped dense column, so a query costs no O(N)
/// clear and no hashing.
template <typename BlockedFn, typename VisitFn>
static uint64_t closureFreq(const FrozenGraph &G, NodeId Start, bool Forward,
                            std::vector<uint32_t> &Mark, uint32_t Epoch,
                            std::vector<NodeId> &Work, BlockedFn Blocked,
                            VisitFn OnVisit) {
  Work.clear();
  Work.push_back(Start);
  Mark[Start] = Epoch;
  uint64_t Sum = 0;
  while (!Work.empty()) {
    NodeId N = Work.back();
    Work.pop_back();
    Sum = saturatingAdd(Sum, G.freq(N));
    OnVisit(N);
    for (NodeId M : Forward ? G.out(N) : G.in(N)) {
      if (Mark[M] == Epoch)
        continue;
      Mark[M] = Epoch;
      if (Blocked(M))
        continue;
      Work.push_back(M);
    }
  }
  return Sum;
}

uint64_t CostModel::abstractCost(NodeId N) const {
  return closureFreq(
      G, N, /*Forward=*/false, VisitMark, ++VisitEpoch, WorkScratch,
      [](NodeId) { return false; }, [](NodeId) {});
}

uint64_t CostModel::hrac(NodeId N) const {
  if (HracValid[N])
    return HracCache[N];
  // Definition 5: no node on the path may read from a static or object
  // field, so heap-reading predecessors are not entered (and not counted).
  uint64_t Cost = closureFreq(
      G, N, /*Forward=*/false, VisitMark, ++VisitEpoch, WorkScratch,
      [this](NodeId M) { return G.readsHeap(M); }, [](NodeId) {});
  HracCache[N] = Cost;
  HracValid[N] = 1;
  return Cost;
}

const BenefitInfo &CostModel::hrab(NodeId N) const {
  if (HrabValid[N])
    return HrabCache[N];
  BenefitInfo Info;
  Info.Benefit = closureFreq(
      G, N, /*Forward=*/true, VisitMark, ++VisitEpoch, WorkScratch,
      [this](NodeId M) { return G.writesHeap(M); },
      [this, &Info](NodeId M) {
        ConsumerKind C = G.consumer(M);
        if (C == ConsumerKind::Predicate)
          Info.ReachesPredicate = true;
        else if (C == ConsumerKind::Native)
          Info.ReachesNative = true;
      });
  HrabCache[N] = Info;
  HrabValid[N] = 1;
  return HrabCache[N];
}

LocCostBenefit CostModel::locCostBenefitAt(uint32_t I) const {
  LocCostBenefit CB;
  auto Writers = G.writersAt(I);
  if (!Writers.empty()) {
    uint64_t Sum = 0;
    for (NodeId W : Writers)
      Sum = saturatingAdd(Sum, hrac(W));
    CB.NumWriters = Writers.size();
    CB.Rac = double(Sum) / double(CB.NumWriters);
  }
  auto Readers = G.readersAt(I);
  if (!Readers.empty()) {
    uint64_t Sum = 0;
    for (NodeId R : Readers) {
      const BenefitInfo &B = hrab(R);
      Sum = saturatingAdd(Sum, B.Benefit);
      CB.ReachesPredicate |= B.ReachesPredicate;
      CB.ReachesNative |= B.ReachesNative;
    }
    CB.NumReaders = Readers.size();
    CB.Rab = double(Sum) / double(CB.NumReaders);
  }
  return CB;
}

std::span<const uint32_t> CostModel::fieldsOf(uint64_t Tag) const {
  auto It = FieldsByTag.find(Tag);
  if (It == FieldsByTag.end())
    return {};
  return {FieldLocs.data() + It->second.first,
          FieldLocs.data() + It->second.second};
}

std::vector<uint64_t> CostModel::allTags() const {
  std::vector<uint64_t> Tags;
  Tags.reserve(G.allocEntries().size());
  for (const auto &[Tag, Node] : G.allocEntries())
    Tags.push_back(Tag);
  return Tags; // allocEntries() is already tag-sorted.
}

ObjectCostBenefit CostModel::objectCostBenefit(uint64_t RootTag,
                                               unsigned Depth) const {
  ObjectCostBenefit Out;
  // Definition 7: breadth-first reference tree of height Depth, cycles and
  // nodes deeper than Depth removed.
  std::unordered_map<uint64_t, unsigned> DepthOf;
  std::vector<uint64_t> Order;
  DepthOf[RootTag] = 0;
  Order.push_back(RootTag);
  for (size_t Head = 0; Head != Order.size(); ++Head) {
    uint64_t Tag = Order[Head];
    unsigned D = DepthOf[Tag];
    if (D >= Depth)
      continue;
    for (uint32_t Loc : fieldsOf(Tag)) {
      for (uint64_t Child : G.refChildrenAt(Loc)) {
        if (DepthOf.count(Child))
          continue; // Cycle / diamond: keep the first (shallowest) depth.
        DepthOf[Child] = D + 1;
        Order.push_back(Child);
      }
    }
  }
  Out.TreeObjects = Order.size();

  // Fields of objects at depth < n count (scalar fields always, reference
  // fields when a pointed-to object is inside the tree). 1-RAC is thus the
  // object's own fields; each extra level adds one ring of the structure.
  for (uint64_t Tag : Order) {
    if (DepthOf[Tag] >= Depth)
      continue;
    for (uint32_t Loc : fieldsOf(Tag)) {
      // Reference fields count only when a pointed-to object is in the
      // tree as well (Definition 7); scalar fields always count.
      auto RC = G.refChildrenAt(Loc);
      if (!RC.empty()) {
        bool AnyChildInTree = false;
        for (uint64_t Child : RC) {
          if (DepthOf.count(Child)) {
            AnyChildInTree = true;
            break;
          }
        }
        if (!AnyChildInTree)
          continue;
      }
      LocCostBenefit CB = locCostBenefitAt(Loc);
      Out.NRac += CB.Rac;
      Out.NRab += CB.Rab;
      Out.ReachesPredicate |= CB.ReachesPredicate;
      Out.ReachesNative |= CB.ReachesNative;
      ++Out.FieldsCounted;
    }
  }
  return Out;
}
