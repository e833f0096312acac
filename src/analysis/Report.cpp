//===- analysis/Report.cpp - Low-utility data structure ranking ------------===//

#include "analysis/Report.h"

#include "ir/Module.h"
#include "ir/Printer.h"
#include "profiling/CopyProfiler.h"
#include "profiling/NullnessProfiler.h"
#include "profiling/TypestateProfiler.h"
#include "support/OutStream.h"

#include <algorithm>
#include <map>
#include <numeric>

using namespace lud;

LowUtilityReport::LowUtilityReport(const CostModel &CM, const Module &M,
                                   ReportOptions Opts)
    : Opts(Opts) {
  const FrozenGraph &G = CM.graph();

  // Aggregate tag-level cost/benefit per allocation site.
  std::map<AllocSiteId, SiteScore> BySite;
  for (uint64_t Tag : CM.allTags()) {
    if (FrozenGraph::isStaticTag(Tag))
      continue;
    ObjectCostBenefit CB = CM.objectCostBenefit(Tag, Opts.Depth);
    AllocSiteId Site = G.tagSite(Tag);
    SiteScore &S = BySite[Site];
    S.Site = Site;
    if (S.Description.empty())
      S.Description = M.describeAllocSite(Site);
    S.NRac += CB.NRac;
    S.NRab += CB.NRab;
    S.ReachesPredicate |= CB.ReachesPredicate;
    S.ReachesNative |= CB.ReachesNative;
    ++S.NumContexts;
    // Raw activity for the report columns.
    for (uint32_t Loc : CM.fieldsOf(Tag)) {
      for (NodeId W : G.writersAt(Loc))
        S.Writes += G.freq(W);
      for (NodeId R : G.readersAt(Loc))
        S.Reads += G.freq(R);
    }
  }

  for (auto &[Site, S] : BySite) {
    if (S.NRac < Opts.MinCost)
      continue;
    double Benefit = S.NRab;
    bool Infinite = false;
    auto Apply = [&](bool Reaches, ConsumerWeight W) {
      if (!Reaches)
        return;
      switch (W) {
      case ConsumerWeight::Zero:
        break;
      case ConsumerWeight::Large:
        Benefit += kLargeBenefit;
        break;
      case ConsumerWeight::Infinite:
        Infinite = true;
        break;
      }
    };
    Apply(S.ReachesPredicate, Opts.PredicateWeight);
    Apply(S.ReachesNative, Opts.NativeWeight);
    if (Infinite)
      S.Ratio = 0;
    else
      S.Ratio = S.NRac / std::max(Benefit, 1e-9);
    Sites.push_back(S);
  }

  std::sort(Sites.begin(), Sites.end(),
            [](const SiteScore &A, const SiteScore &B) {
              if (A.Ratio != B.Ratio)
                return A.Ratio > B.Ratio;
              if (A.NRac != B.NRac)
                return A.NRac > B.NRac;
              return A.Site < B.Site;
            });
}

int LowUtilityReport::rankOf(AllocSiteId Site) const {
  for (size_t I = 0; I != Sites.size(); ++I)
    if (Sites[I].Site == Site)
      return int(I);
  return -1;
}

void LowUtilityReport::print(OutStream &OS, size_t TopK) const {
  OS << "rank  ratio        n-RAC        n-RAB   writes    reads  ctxs  "
        "flags  allocation site\n";
  size_t Limit = std::min(TopK, Sites.size());
  for (size_t I = 0; I != Limit; ++I) {
    const SiteScore &S = Sites[I];
    char Ratio[16];
    if (S.Ratio > 1e9) // Benefit is zero: the structure is never read.
      std::snprintf(Ratio, sizeof(Ratio), "%s", "dead");
    else
      std::snprintf(Ratio, sizeof(Ratio), "%.1f", S.Ratio);
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%4zu  %9s %12.1f %12.1f %8llu %8llu %5u",
                  I + 1, Ratio, S.NRac, S.NRab,
                  (unsigned long long)S.Writes, (unsigned long long)S.Reads,
                  S.NumContexts);
    OS << Buf << "  " << (S.ReachesNative ? 'N' : '-')
       << (S.ReachesPredicate ? 'P' : '-') << "    " << S.Description << "\n";
  }
}

std::vector<SiteScore>
LowUtilityReport::filterByClass(const Module &M,
                                const std::vector<ClassId> &Classes) const {
  std::vector<SiteScore> Out;
  for (const SiteScore &S : Sites) {
    const Instruction *I = M.getAllocSite(S.Site);
    const auto *A = dyn_cast<AllocInst>(I);
    if (!A)
      continue;
    if (std::find(Classes.begin(), Classes.end(), A->Class) != Classes.end())
      Out.push_back(S);
  }
  return Out;
}

//===----------------------------------------------------------------------===
// Per-client report sections.
//===----------------------------------------------------------------------===

namespace {

std::string heapLocName(const Module &M, const HeapLoc &L) {
  if (DepGraph::isStaticTag(L.Tag))
    return "static#" + std::to_string(L.Tag - kStaticTagBase);
  if (L.Slot == kElemSlot)
    return M.describeAllocSite(AllocSiteId(L.Tag)) + ".ELM";
  ClassId C = cast<AllocInst>(M.getAllocSite(AllocSiteId(L.Tag)))->Class;
  return M.describeAllocSite(AllocSiteId(L.Tag)) + "." + M.fieldName(C, L.Slot);
}

std::string instrAt(const Module &M, InstrId I) {
  return M.getInstrFunction(I)->getName() + ": " +
         instToString(M, *M.getInstr(I));
}

} // namespace

void lud::printCopyChains(const CopyProfiler &P, const Module &M,
                          OutStream &OS, size_t TopK) {
  OS << "  " << P.copyInstances() << " copy-instruction instances\n";
  if (P.chains().empty()) {
    OS << "  (no heap-to-heap copy chains)\n";
    return;
  }
  std::vector<size_t> Order(P.chains().size());
  std::iota(Order.begin(), Order.end(), size_t(0));
  std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
    return P.chains()[A].Count > P.chains()[B].Count;
  });
  const FrozenGraph Sealed(P.graph());
  for (size_t I = 0; I != Order.size() && I != TopK; ++I) {
    const CopyProfiler::CopyChain &Chain = P.chains()[Order[I]];
    OS << "  " << heapLocName(M, Chain.From) << "  ->  "
       << heapLocName(M, Chain.To) << "   x" << Chain.Count << "\n";
    OS << "    via stack hops:\n";
    for (InstrId Hop : CopyProfiler::stackHops(Sealed, Chain))
      OS << "      " << instrAt(M, Hop) << "\n";
  }
}

void lud::printNullPropagation(const NullnessProfiler &P, const Module &M,
                               OutStream &OS) {
  NullTrace T = traceNullOrigin(P);
  if (!T.found()) {
    OS << "  (no null dereference observed)\n";
    return;
  }
  OS << "  null created at: " << instrAt(M, T.Origin) << "\n";
  OS << "  propagation flow (origin -> dereference):\n";
  for (InstrId I : T.Flow)
    OS << "    " << instrAt(M, I) << "\n";
}

void lud::printTypestateFindings(const TypestateProfiler &P, const Module &M,
                                 OutStream &OS, size_t TopK) {
  if (P.eventEdges().empty() && P.violations().empty()) {
    OS << "  (no tracked typestate events)\n";
    return;
  }
  OS << "  merged event history (site:state -method-> site:state):\n";
  OS << P.describeHistory(M);
  for (size_t I = 0; I != P.violations().size() && I != TopK; ++I) {
    const TypestateViolation &V = P.violations()[I];
    OS << "  VIOLATION: method '" << M.methodNames()[V.Method]
       << "' invoked in state s" << V.StateBefore << " on objects from "
       << M.describeAllocSite(V.Site) << "\n    at: " << instrAt(M, V.Instr)
       << "\n";
  }
}

void lud::printOverwrites(const std::vector<OverwriteRow> &Rows,
                          OutStream &OS, size_t TopK) {
  OS << "rank  overwrites     writes      reads  waste  location\n";
  size_t Limit = std::min(TopK, Rows.size());
  for (size_t I = 0; I != Limit; ++I) {
    const OverwriteRow &R = Rows[I];
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%4zu  %10llu %10llu %10llu  %4.0f%%",
                  I + 1, (unsigned long long)R.Overwrites,
                  (unsigned long long)R.Writes, (unsigned long long)R.Reads,
                  100.0 * R.WasteRatio);
    OS << Buf << "  " << R.Description << "\n";
  }
}

void lud::printConstantPredicates(
    const std::vector<ConstantPredicateRow> &Rows, OutStream &OS,
    size_t TopK) {
  for (size_t I = 0; I != Rows.size() && I != TopK; ++I)
    OS << "  " << (Rows[I].AlwaysTrue ? "always-true " : "always-false")
       << " x" << Rows[I].Executions << "  " << Rows[I].Text << "\n";
  if (Rows.empty())
    OS << "  (none)\n";
}

void lud::printMethodCosts(const std::vector<MethodCostRow> &Rows,
                           OutStream &OS, size_t TopK) {
  for (size_t I = 0; I != Rows.size() && I != TopK; ++I) {
    OS << "  ";
    OS.printFixed(Rows[I].ReturnCost, 1);
    OS << "  " << Rows[I].Name << "\n";
  }
}

void lud::printClientSections(ClientSet Clients, const CopyProfiler *Copy,
                              const NullnessProfiler *Null,
                              const TypestateProfiler *Type, const Module &M,
                              OutStream &OS, size_t TopK) {
  if (Clients.hasCopy() && Copy) {
    OS << "\n=== copy chains ===\n";
    printCopyChains(*Copy, M, OS, TopK);
  }
  if (Clients.hasNullness() && Null) {
    OS << "\n=== null propagation ===\n";
    printNullPropagation(*Null, M, OS);
  }
  if (Clients.hasTypestate() && Type) {
    OS << "\n=== typestate history ===\n";
    printTypestateFindings(*Type, M, OS, TopK);
  }
}
