//===- analysis/Clients.cpp - Section 3.2's auxiliary clients --------------===//

#include "analysis/Clients.h"

#include "ir/Module.h"
#include "ir/Printer.h"
#include "support/OutStream.h"

#include <algorithm>

using namespace lud;

/// Overwrite rows with fewer total writes drop as noise.
static constexpr uint64_t kMinWrites = 2;
/// Executions a predicate needs before its constancy counts.
static constexpr uint64_t kMinExecutions = 2;

std::vector<OverwriteRow> lud::rankOverwrites(const SlicingProfiler &P,
                                              const Module &M,
                                              const ClientOptions &) {
  const DepGraph &G = P.graph();
  // Aggregate per (site-or-global, slot) over context-annotated tags: one
  // flat entry per location an event touched, sorted by key and merged, so
  // text is built only for the rows that survive the kMinWrites cut.
  struct Acc {
    uint64_t Key; // the static tag for a global, else the allocation site
    FieldSlot Slot;
    uint64_t Writes, Reads, Overwrites;
  };
  std::vector<Acc> Accs;
  Accs.reserve(G.records().size());
  for (const DepGraph::LocRecord &R : G.records()) {
    const LocationActivity &Act = R.Activity;
    if (Act.Writes == 0 && Act.Reads == 0)
      continue;
    Accs.push_back({DepGraph::isStaticTag(R.Loc.Tag) ? R.Loc.Tag
                                                     : G.tagSite(R.Loc.Tag),
                    R.Loc.Slot, Act.Writes, Act.Reads, Act.Overwrites});
  }
  std::sort(Accs.begin(), Accs.end(), [](const Acc &A, const Acc &B) {
    return A.Key != B.Key ? A.Key < B.Key : A.Slot < B.Slot;
  });

  std::vector<OverwriteRow> Rows;
  uint64_t DescribedKey = ~uint64_t(0);
  std::string SitePrefix; // "new List @ chart.build ." for DescribedKey
  ClassId Cls = kNoClass;
  for (size_t I = 0; I != Accs.size();) {
    const Acc &First = Accs[I];
    OverwriteRow Row;
    for (; I != Accs.size() && Accs[I].Key == First.Key &&
           Accs[I].Slot == First.Slot;
         ++I) {
      Row.Writes += Accs[I].Writes;
      Row.Reads += Accs[I].Reads;
      Row.Overwrites += Accs[I].Overwrites;
    }
    if (Row.Writes < kMinWrites)
      continue;
    Row.Slot = First.Slot;
    if (DepGraph::isStaticTag(First.Key)) {
      Row.Global = GlobalId(First.Key - kStaticTagBase);
      Row.Description = "static @" + M.globals()[Row.Global].Name;
    } else {
      Row.Site = AllocSiteId(First.Key);
      if (DescribedKey != First.Key) {
        DescribedKey = First.Key;
        SitePrefix = M.describeAllocSite(Row.Site) + " .";
        const auto *A = dyn_cast<AllocInst>(M.getAllocSite(Row.Site));
        Cls = A ? A->Class : kNoClass;
      }
      Row.Description = SitePrefix;
      if (Row.Slot == kElemSlot)
        Row.Description += "ELM";
      else if (Row.Slot == kLenSlot)
        Row.Description += "length";
      else if (Cls != kNoClass)
        Row.Description += M.fieldName(Cls, Row.Slot);
      else
        Row.Description += "<slot" + std::to_string(Row.Slot) + ">";
    }
    Row.WasteRatio = Row.Writes ? double(Row.Overwrites) / double(Row.Writes)
                                : 0;
    Rows.push_back(std::move(Row));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const OverwriteRow &A, const OverwriteRow &B) {
              if (A.Overwrites != B.Overwrites)
                return A.Overwrites > B.Overwrites;
              if (A.WasteRatio != B.WasteRatio)
                return A.WasteRatio > B.WasteRatio;
              return A.Description < B.Description;
            });
  return Rows;
}

int lud::overwriteRankOf(const std::vector<OverwriteRow> &Rows,
                         AllocSiteId Site) {
  for (size_t I = 0; I != Rows.size(); ++I)
    if (Rows[I].Site == Site)
      return int(I);
  return -1;
}

std::vector<MethodCostRow> lud::computeMethodCosts(const CostModel &CM,
                                                   const Module &M) {
  const FrozenGraph &G = CM.graph();
  // Dense per-function columns; a row exists once a node of its function
  // does.
  std::vector<MethodCostRow> Agg(M.functions().size());
  std::vector<uint64_t> RetHracSum(Agg.size(), 0);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    InstrId Instr = G.instr(N);
    FuncId F = M.getInstrFunction(Instr)->getId();
    MethodCostRow &Row = Agg[F];
    Row.Func = F;
    Row.OwnFreq += G.freq(N);
    if (isa<ReturnInst>(M.getInstr(Instr))) {
      RetHracSum[F] += CM.hrac(N);
      ++Row.ReturnNodes;
    }
  }
  std::vector<MethodCostRow> Rows;
  for (FuncId F = 0; F != FuncId(Agg.size()); ++F) {
    MethodCostRow &Row = Agg[F];
    if (Row.Func == kNoFunc)
      continue;
    Row.Name = M.getFunction(F)->getName();
    if (Row.ReturnNodes)
      Row.ReturnCost = double(RetHracSum[F]) / double(Row.ReturnNodes);
    Rows.push_back(std::move(Row));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const MethodCostRow &A, const MethodCostRow &B) {
              if (A.ReturnCost != B.ReturnCost)
                return A.ReturnCost > B.ReturnCost;
              return A.OwnFreq > B.OwnFreq;
            });
  return Rows;
}

std::vector<ConstantPredicateRow>
lud::findConstantPredicates(const SlicingProfiler &P, const CostModel &CM,
                            const Module &M, const ClientOptions &) {
  std::vector<ConstantPredicateRow> Rows;
  const auto &Outcomes = P.predicateOutcomes();
  for (NodeId Node = 0; Node != NodeId(Outcomes.size()); ++Node) {
    const SlicingProfiler::PredicateOutcome &Outcome = Outcomes[Node];
    uint64_t Total = Outcome.TakenCount + Outcome.NotTakenCount;
    if (Total < kMinExecutions)
      continue;
    if (Outcome.TakenCount != 0 && Outcome.NotTakenCount != 0)
      continue;
    ConstantPredicateRow Row;
    Row.Node = Node;
    Row.Instr = CM.graph().instr(Node);
    Row.Executions = Total;
    Row.AlwaysTrue = Outcome.TakenCount != 0;
    Row.OperandCost = CM.hrac(Node);
    Row.Text = instToString(M, *M.getInstr(Row.Instr)) + " @ " +
               M.getInstrFunction(Row.Instr)->getName();
    Rows.push_back(std::move(Row));
  }
  std::sort(Rows.begin(), Rows.end(),
            [](const ConstantPredicateRow &A, const ConstantPredicateRow &B) {
              double WA = double(A.OperandCost) * double(A.Executions);
              double WB = double(B.OperandCost) * double(B.Executions);
              if (WA != WB)
                return WA > WB;
              return A.Instr < B.Instr;
            });
  return Rows;
}
