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
  VisitMark.assign(G.numNodes(), 0);
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
  if (auto It = HracMemo.find(N); It != HracMemo.end())
    return It->second;
  // Definition 5: no node on the path may read from a static or object
  // field, so heap-reading predecessors are not entered (and not counted).
  uint64_t Cost = closureFreq(
      G, N, /*Forward=*/false, VisitMark, ++VisitEpoch, WorkScratch,
      [this](NodeId M) { return G.readsHeap(M); }, [](NodeId) {});
  HracMemo.insert(N, Cost);
  return Cost;
}

/// The predicate/native flag bits HRAB ORs over a closure.
static uint8_t consumerFlags(const FrozenGraph &G, NodeId N) {
  ConsumerKind C = G.consumer(N);
  return C == ConsumerKind::Predicate ? 1 : C == ConsumerKind::Native ? 2 : 0;
}

BenefitInfo CostModel::hrabReference(NodeId N, uint64_t *Visits) const {
  BenefitInfo Info;
  uint64_t Seen = 0;
  Info.Benefit = closureFreq(
      G, N, /*Forward=*/true, VisitMark, ++VisitEpoch, WorkScratch,
      [this](NodeId M) { return G.writesHeap(M); },
      [this, &Info, &Seen](NodeId M) {
        uint8_t Flags = consumerFlags(G, M);
        Info.ReachesPredicate |= (Flags & 1) != 0;
        Info.ReachesNative |= (Flags & 2) != 0;
        ++Seen;
      });
  if (Visits)
    *Visits += Seen;
  return Info;
}

/// The one successor of \p X that does not write the heap: X's chain link
/// when it has exactly one such successor, else kNoNode.
static NodeId onlyUnblockedSucc(const FrozenGraph &G, NodeId X) {
  NodeId Only = kNoNode;
  for (NodeId Y : G.out(X)) {
    if (G.writesHeap(Y))
      continue;
    if (Only != kNoNode)
      return kNoNode;
    Only = Y;
  }
  return Only;
}

void CostModel::buildForest() const {
  ForestBuilt = true;
  ChainForest &F = Forest;
  const NodeId N = NodeId(G.numNodes());
  // Bit 0: X links to its only unblocked successor. Bits 1 and 2 mark the
  // walks below: on the current walk, and done.
  std::vector<uint8_t> Link(N, 0);
  for (NodeId X = 0; X != N; ++X)
    Link[X] = onlyUnblockedSucc(G, X) != kNoNode;
  // Each node has at most one link, so a cycle of links is found by
  // following them; dropping the link that closes it leaves a forest.
  std::vector<NodeId> Walk;
  for (NodeId S = 0; S != N; ++S) {
    NodeId X = S;
    while (X != kNoNode && !(Link[X] & 6)) {
      Link[X] |= 2;
      Walk.push_back(X);
      X = Link[X] & 1 ? onlyUnblockedSucc(G, X) : kNoNode;
    }
    if (X != kNoNode && (Link[X] & 2))
      Link[Walk.back()] &= ~1; // the link back onto this walk
    for (NodeId W : Walk)
      Link[W] = (Link[W] & 1) | 4;
    Walk.clear();
  }

  // A node's children are the linked nodes among its predecessors: a
  // linked node's only unblocked successor is its parent.
  auto ForEachChild = [&](NodeId X, auto Fn) {
    if (G.writesHeap(X))
      return;
    for (NodeId C : G.in(X))
      if (Link[C] & 1)
        Fn(C);
  };
  F.Pre.assign(N, kNoPre);
  F.Jump.assign(N, kNoNode);
  F.PathFreq.assign(N, 0);
  F.PathFlags.assign(N, 0);
  std::vector<uint32_t> Depth(N, 0);
  uint32_t NextPre = 0;
  std::vector<NodeId> Stack, Tree;
  for (NodeId R = 0; R != N; ++R) {
    bool HasChild = false;
    if (!(Link[R] & 1))
      ForEachChild(R, [&](NodeId) { HasChild = true; });
    if (!HasChild)
      continue; // Not a root, or a lone node: walked as itself.
    F.Jump[R] = R;
    F.PathFreq[R] = G.freq(R);
    F.PathFlags[R] = consumerFlags(G, R);
    uint64_t Total = 0;
    Stack.assign(1, R);
    Tree.clear();
    while (!Stack.empty()) {
      NodeId X = Stack.back();
      Stack.pop_back();
      F.Pre[X] = NextPre++;
      Tree.push_back(X);
      Total = saturatingAdd(Total, G.freq(X));
      ForEachChild(X, [&](NodeId C) {
        // Skew-binary jump pointers: O(log depth) ancestor searches from
        // one word per node.
        NodeId J = F.Jump[X];
        F.Jump[C] = Depth[X] - Depth[J] == Depth[J] - Depth[F.Jump[J]]
                        ? F.Jump[J]
                        : X;
        Depth[C] = Depth[X] + 1;
        F.PathFreq[C] = G.freq(C) + F.PathFreq[X]; // exact unless Total saturates
        F.PathFlags[C] = consumerFlags(G, C) | F.PathFlags[X];
        Stack.push_back(C);
      });
    }
    if (Total == ~uint64_t(0))
      for (NodeId X : Tree)
        F.Pre[X] = kNoPre; // Saturating tree: its nodes walk one by one.
  }
}

NodeId CostModel::forestLca(NodeId U, NodeId V) const {
  const ChainForest &F = Forest;
  // V's ancestors precede it in preorder, and the deepest one at or
  // before U is the LCA; when even V's root comes after U, U lies in an
  // earlier tree. The predicate is monotone up the path, so the jump
  // pointers find that ancestor in O(log depth) steps.
  const uint32_t Limit = F.Pre[U];
  while (F.Pre[V] > Limit) {
    NodeId J = F.Jump[V];
    if (J == V)
      return kNoNode;
    V = F.Pre[J] > Limit ? J : onlyUnblockedSucc(G, V);
  }
  return V;
}

BenefitInfo CostModel::hrab(NodeId N) const {
  if (auto It = HrabMemo.find(N); It != HrabMemo.end())
    return It->second;
  if (!ForestBuilt)
    buildForest();
  const ChainForest &F = Forest;
  const uint32_t Epoch = ++VisitEpoch;
  uint64_t Sum = 0;
  uint8_t Flags = 0;
  WorkScratch.clear();
  EntryScratch.clear();
  // An unlinked node counts and expands by itself. A tree node joins the
  // entries whose root paths are unioned below, and its root (the one
  // tree node with other successors) expands once.
  auto Enter = [&](NodeId X) {
    if (VisitMark[X] == Epoch)
      return;
    VisitMark[X] = Epoch;
    ++HrabVisits;
    if (F.Pre[X] == kNoPre) {
      Sum = saturatingAdd(Sum, G.freq(X));
      Flags |= consumerFlags(G, X);
      WorkScratch.push_back(X);
      return;
    }
    EntryScratch.push_back(X);
    NodeId R = X;
    while (F.Jump[R] != R)
      R = F.Jump[R];
    if (R != X) {
      if (VisitMark[R] == Epoch)
        return;
      VisitMark[R] = Epoch;
    }
    WorkScratch.push_back(R);
  };
  Enter(N);
  while (!WorkScratch.empty()) {
    NodeId X = WorkScratch.back();
    WorkScratch.pop_back();
    for (NodeId Y : G.out(X))
      if (!G.writesHeap(Y))
        Enter(Y);
  }
  // Union of the entries' root paths per tree: in preorder, each entry
  // adds its path up to (not including) its LCA with the entry before it,
  // or its whole path when that entry lies in an earlier tree.
  std::sort(EntryScratch.begin(), EntryScratch.end(),
            [&F](NodeId A, NodeId B) { return F.Pre[A] < F.Pre[B]; });
  for (size_t I = 0; I != EntryScratch.size(); ++I) {
    NodeId E = EntryScratch[I];
    uint64_t Add = F.PathFreq[E];
    if (I)
      if (NodeId L = forestLca(EntryScratch[I - 1], E); L != kNoNode)
        Add -= F.PathFreq[L];
    Sum = saturatingAdd(Sum, Add);
    Flags |= F.PathFlags[E];
  }
  BenefitInfo Info;
  Info.Benefit = Sum;
  Info.ReachesPredicate = (Flags & 1) != 0;
  Info.ReachesNative = (Flags & 2) != 0;
  HrabMemo.insert(N, Info);
  return Info;
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
      BenefitInfo B = hrab(R);
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
