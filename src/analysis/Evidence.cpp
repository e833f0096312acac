//===- analysis/Evidence.cpp - Per-structure usage evidence ----------------===//

#include "analysis/Evidence.h"

#include "analysis/CacheCost.h"
#include "analysis/CostModel.h"
#include "ir/Module.h"

using namespace lud;

const char *lud::usageKindName(UsageKind K) {
  switch (K) {
  case UsageKind::WriteOnly:
    return "write-only";
  case UsageKind::OnceRead:
    return "once-read";
  case UsageKind::OverwriteDominated:
    return "overwrite-dominated";
  case UsageKind::BuildOnceReadMany:
    return "build-once-read-many";
  case UsageKind::ClonePerOp:
    return "clone-per-op";
  case UsageKind::Balanced:
    return "balanced";
  }
  return "unknown";
}

namespace {

/// Threshold classifier over the folded counters. Ordered from the
/// strongest signal down; every rule is documented in docs/OPTIMIZER.md
/// and pinned by tests/analysis/EvidenceTest.cpp on the DaCapo recipes.
UsageKind classify(const UsageSummary &S) {
  // Too few events to call a pattern.
  if (S.Writes + S.Reads < 16)
    return UsageKind::Balanced;
  if (S.Reads == 0)
    return UsageKind::WriteOnly;
  // Half or more of the stores clobbered unread values.
  if (2 * S.Overwrites >= S.Writes)
    return UsageKind::OverwriteDominated;
  // Many instances each built and consumed once: writes scale with
  // instances and read volume pairs with write volume (within 2x).
  if (S.Instances >= 8 && S.Writes >= 2 * S.Instances &&
      S.Reads <= 2 * S.Writes && S.Writes <= 2 * S.Reads)
    return UsageKind::ClonePerOp;
  if (S.Reads >= 4 * S.Writes)
    return UsageKind::BuildOnceReadMany;
  // Each stored value read at most about once (one read per write plus
  // per-instance slack for length probes).
  if (S.Reads <= S.Writes + S.Instances)
    return UsageKind::OnceRead;
  return UsageKind::Balanced;
}

} // namespace

UsageEvidence lud::summarizeUsage(const Module &M, const FrozenGraph &G,
                                  const HeapLocMap<LocationActivity> &Activity,
                                  const DeadValueAnalysis *DV) {
  UsageEvidence Out;
  Out.Sites.resize(M.getNumAllocSites());
  Out.Statics.resize(M.globals().size());
  for (AllocSiteId S = 0; S != AllocSiteId(Out.Sites.size()); ++S) {
    Out.Sites[S].Site = S;
    Out.Sites[S].Description = M.describeAllocSite(S);
  }
  for (GlobalId Gl = 0; Gl != GlobalId(Out.Statics.size()); ++Gl) {
    Out.Statics[Gl].IsStatic = true;
    Out.Statics[Gl].Global = Gl;
    Out.Statics[Gl].Description = "static " + M.globals()[Gl].Name;
  }

  // Resolves the structure a heap location belongs to, or null for tags
  // outside both universes (cannot happen for locations the profiler
  // recorded, but stay defensive about slot arithmetic).
  auto structureFor = [&](uint64_t Tag) -> UsageSummary * {
    if (FrozenGraph::isStaticTag(Tag)) {
      uint64_t Gl = Tag - kStaticTagBase;
      return Gl < Out.Statics.size() ? &Out.Statics[Gl] : nullptr;
    }
    AllocSiteId S = G.tagSite(Tag);
    return S < Out.Sites.size() ? &Out.Sites[S] : nullptr;
  };

  // Allocation instances per site (context tags of one site sum).
  for (const auto &[Tag, Node] : G.allocEntries())
    if (UsageSummary *S = structureFor(Tag); S && !S->IsStatic)
      S->Instances += G.freq(Node);

  // Phase counters per location of the sealed universe, folded per
  // structure, plus the dead-write volume over each location's writer
  // nodes. Locations with no activity (pure spine locations) still count.
  for (size_t I = 0; I != G.numLocs(); ++I) {
    HeapLoc L = G.loc(I);
    UsageSummary *S = structureFor(L.Tag);
    if (!S)
      continue;
    ++S->Locs;
    if (auto It = Activity.find(L); It != Activity.end()) {
      const LocationActivity &A = It->second;
      S->Writes += A.Writes;
      S->Reads += A.Reads;
      S->Overwrites += A.Overwrites;
      S->ReadsAfterLastWrite += A.ReadsAfterLastWrite;
    }
    if (DV)
      for (NodeId W : G.writersAt(I))
        if (W < DV->Dead.size() && DV->Dead[W])
          S->DeadWriteFreq += G.freq(W);
  }

  // Cost-benefit (Definition 7 over the reference tree) and cache
  // effectiveness, both keyed per allocation site.
  CostModel CM(G);
  for (const auto &[Tag, Node] : G.allocEntries()) {
    (void)Node;
    UsageSummary *S = structureFor(Tag);
    if (!S || S->IsStatic)
      continue;
    ObjectCostBenefit OCB = CM.objectCostBenefit(Tag, /*Depth=*/4);
    S->Cost += OCB.NRac;
    S->Benefit += OCB.NRab;
  }
  for (const CacheScore &CS : rankCacheEffectiveness(CM, M))
    if (CS.Site < Out.Sites.size())
      Out.Sites[CS.Site].CacheEffectiveness = CS.Effectiveness;

  for (UsageSummary &S : Out.Sites)
    S.Kind = classify(S);
  for (UsageSummary &S : Out.Statics)
    S.Kind = classify(S);
  return Out;
}
