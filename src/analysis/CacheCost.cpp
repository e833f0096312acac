//===- analysis/CacheCost.cpp - Cache-effectiveness analysis ---------------===//

#include "analysis/CacheCost.h"

#include "ir/Module.h"
#include "support/OutStream.h"

#include <algorithm>
#include <map>

using namespace lud;

/// Sites with fewer stores are too small to judge.
static constexpr uint64_t kMinWrites = 4;

std::vector<CacheScore> lud::rankCacheEffectiveness(const CostModel &CM,
                                                    const Module &M) {
  const FrozenGraph &G = CM.graph();
  std::map<AllocSiteId, CacheScore> BySite;

  for (const auto &[Tag, Alloc] : G.allocEntries()) {
    if (FrozenGraph::isStaticTag(Tag))
      continue;
    AllocSiteId Site = G.tagSite(Tag);
    CacheScore &S = BySite[Site];
    if (S.Site == kNoAllocSite) {
      S.Site = Site;
      S.Description = M.describeAllocSite(Site);
    }
    // Spine: the allocation instances themselves...
    S.SpineCost += double(G.freq(Alloc));

    for (uint32_t Loc : CM.fieldsOf(Tag)) {
      uint64_t Writes = 0, Reads = 0;
      for (NodeId W : G.writersAt(Loc))
        Writes += G.freq(W);
      for (NodeId R : G.readersAt(Loc))
        Reads += G.freq(R);
      S.Writes += Writes;
      S.Reads += Reads;
      // ...plus the store instances maintaining it (one instance each;
      // the *value* computation is deliberately excluded).
      S.SpineCost += double(Writes);
      // Work one cached value costs to produce, excluding the store
      // instance itself.
      LocCostBenefit CB = CM.locCostBenefitAt(Loc);
      double CachedWork = std::max(CB.Rac - 1.0, 0.0);
      if (Reads > Writes)
        S.SavedWork += CachedWork * double(Reads - Writes);
    }
  }

  std::vector<CacheScore> Rows;
  for (auto &[Site, S] : BySite) {
    if (S.Writes < kMinWrites)
      continue;
    S.Effectiveness = S.SpineCost > 0 ? S.SavedWork / S.SpineCost : 0;
    Rows.push_back(std::move(S));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const CacheScore &A, const CacheScore &B) {
              if (A.Effectiveness != B.Effectiveness)
                return A.Effectiveness < B.Effectiveness;
              if (A.SpineCost != B.SpineCost)
                return A.SpineCost > B.SpineCost;
              return A.Site < B.Site;
            });
  return Rows;
}

void lud::printCacheScores(const std::vector<CacheScore> &Rows,
                           OutStream &OS, size_t TopK) {
  OS << "rank  effect      spine      saved   writes    reads  "
        "structure\n";
  size_t Limit = std::min(TopK, Rows.size());
  for (size_t I = 0; I != Limit; ++I) {
    const CacheScore &S = Rows[I];
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%4zu  %6.2f %10.1f %10.1f %8llu %8llu",
                  I + 1, S.Effectiveness, S.SpineCost, S.SavedWork,
                  (unsigned long long)S.Writes, (unsigned long long)S.Reads);
    OS << Buf << "  " << S.Description << "\n";
  }
}
