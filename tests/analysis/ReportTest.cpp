//===- tests/analysis/ReportTest.cpp - Low-utility site ranking ------------===//

#include "../TestUtil.h"

#include "analysis/Report.h"
#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "support/OutStream.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

/// Builds the paper's motivating pattern (the DaCapo chart example from the
/// introduction): a list is populated with expensively computed entries,
/// but only its size is ever inspected. A second, genuinely useful object
/// is the control. Returns (bloat site, useful site).
struct ChartLike {
  std::unique_ptr<Module> M;
  AllocSiteId BloatSite;
  AllocSiteId UsefulSite;
};

ChartLike buildChartLike(int64_t Entries) {
  ChartLike Out;
  Out.M = std::make_unique<Module>();
  Module &M = *Out.M;
  ClassDecl *List = M.addClass("List");
  List->addField("arr", Type::makeRef());
  List->addField("size", Type::makeInt());
  ClassDecl *Entry = M.addClass("Entry");
  Entry->addField("v", Type::makeInt());
  ClassDecl *Acc = M.addClass("Acc");
  Acc->addField("total", Type::makeInt());

  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg N = B.iconst(Entries);
  Reg ListR = B.alloc(List->getId());
  Instruction *ListAlloc = M.getFunction(0)->entry()->insts().back().get();
  Reg Arr = B.allocArray(TypeKind::Ref, N);
  B.storeField(ListR, List->getId(), "arr", Arr);
  Reg AccR = B.alloc(Acc->getId());
  Instruction *AccAlloc = B.block()->insts().back().get();
  Reg Zero = B.iconst(0);
  B.storeField(AccR, Acc->getId(), "total", Zero);

  Reg I = B.iconst(0);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  // Expensively compute a value, box it into an Entry, append to the list.
  Reg V = B.mul(I, I);
  Reg V2 = B.add(V, One);
  Reg V3 = B.mul(V2, V2);
  Reg E = B.alloc(Entry->getId());
  B.storeField(E, Entry->getId(), "v", V3);
  B.storeElem(Arr, I, E);
  // Also maintain the genuinely useful accumulator.
  Reg T = B.loadField(AccR, Acc->getId(), "total");
  Reg T2 = B.add(T, I);
  B.storeField(AccR, Acc->getId(), "total", T2);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  // Only the list's size is checked; entry values are never read.
  Reg Size = B.loadField(ListR, List->getId(), "arr");
  Reg Len = B.arrayLen(Size);
  Reg Total = B.loadField(AccR, Acc->getId(), "total");
  B.ncallVoid("sink", {Len});
  B.ncallVoid("sink", {Total});
  B.ret();
  B.endFunction();
  M.finalize();

  Out.BloatSite = cast<AllocInst>(ListAlloc)->Site;
  Out.UsefulSite = cast<AllocInst>(AccAlloc)->Site;
  return Out;
}

TEST(ReportTest, ChartPatternRanksListFirst) {
  ChartLike C = buildChartLike(200);
  SlicingProfiler P = profileRun(*C.M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  LowUtilityReport Report(CM, *C.M);
  ASSERT_FALSE(Report.sites().empty());

  // The Entry allocation site (whose values are never read) must outrank
  // the accumulator, whose values flow to the native sink.
  int BloatRank = -1, UsefulRank = -1;
  for (size_t I = 0; I != Report.sites().size(); ++I) {
    const SiteScore &S = Report.sites()[I];
    const Instruction *Site = C.M->getAllocSite(S.Site);
    if (const auto *A = dyn_cast<AllocInst>(Site)) {
      if (C.M->getClass(A->Class)->getName() == "Entry")
        BloatRank = int(I);
      if (S.Site == C.UsefulSite)
        UsefulRank = int(I);
    }
  }
  ASSERT_GE(BloatRank, 0);
  // The useful accumulator reaches a native: infinite benefit, ratio 0.
  if (UsefulRank >= 0) {
    EXPECT_LT(BloatRank, UsefulRank);
  }
  EXPECT_EQ(BloatRank, 0);

  const SiteScore &Top = Report.sites()[0];
  EXPECT_FALSE(Top.ReachesNative);
  EXPECT_GT(Top.Ratio, 100.0);
}

TEST(ReportTest, NativeWeightPolicies) {
  ChartLike C = buildChartLike(50);
  SlicingProfiler P = profileRun(*C.M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  // Strict Section 1 weighting: output-reaching => infinite benefit.
  ReportOptions Strict;
  Strict.NativeWeight = ConsumerWeight::Infinite;
  LowUtilityReport RStrict(CM, *C.M, Strict);
  int Rank = RStrict.rankOf(C.UsefulSite);
  ASSERT_GE(Rank, 0);
  EXPECT_DOUBLE_EQ(RStrict.sites()[Rank].Ratio, 0.0);
  EXPECT_TRUE(RStrict.sites()[Rank].ReachesNative);
  // Default (Large): tiny but nonzero ratio, still far below the bloat.
  LowUtilityReport RLarge(CM, *C.M);
  int RankL = RLarge.rankOf(C.UsefulSite);
  ASSERT_GE(RankL, 0);
  EXPECT_GT(RLarge.sites()[RankL].Ratio, 0.0);
  EXPECT_LT(RLarge.sites()[RankL].Ratio, 1.0);
}

TEST(ReportTest, PredicateWeightPolicyChangesRanking) {
  // A structure whose only use is a predicate: with PredicateWeight=Zero it
  // looks maximally suspicious; with Large it drops.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C1 = B.iconst(3);
  Reg C2 = B.iconst(4);
  Reg V = B.mul(C1, C2);
  B.storeField(O, A->getId(), "f", V);
  Reg L = B.loadField(O, A->getId(), "f");
  BasicBlock *T = B.newBlock();
  BasicBlock *E = B.newBlock();
  B.condBr(CmpOp::Gt, L, C1, T, E);
  B.setBlock(T);
  B.br(E);
  B.setBlock(E);
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);

  ReportOptions Zero;
  Zero.PredicateWeight = ConsumerWeight::Zero;
  LowUtilityReport RZero(CM, M, Zero);
  ReportOptions Large;
  Large.PredicateWeight = ConsumerWeight::Large;
  LowUtilityReport RLarge(CM, M, Large);

  int RankZ = RZero.rankOf(0);
  int RankL = RLarge.rankOf(0);
  ASSERT_GE(RankZ, 0);
  ASSERT_GE(RankL, 0);
  EXPECT_GT(RZero.sites()[RankZ].Ratio, RLarge.sites()[RankL].Ratio);
}

TEST(ReportTest, MinCostFiltersNoise) {
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C = B.iconst(1);
  B.storeField(O, A->getId(), "f", C);
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingProfiler P = profileRun(M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  ReportOptions Opts;
  Opts.MinCost = 1e6; // Everything is below the floor.
  LowUtilityReport Report(CM, M, Opts);
  EXPECT_TRUE(Report.sites().empty());
}

TEST(ReportTest, PrintProducesTable) {
  ChartLike C = buildChartLike(20);
  SlicingProfiler P = profileRun(*C.M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  LowUtilityReport Report(CM, *C.M);
  StringOutStream OS;
  Report.print(OS, 5);
  EXPECT_NE(OS.str().find("rank"), std::string::npos);
  EXPECT_NE(OS.str().find("new Entry @ main"), std::string::npos);
}

TEST(ReportTest, FilterByClassRestrictsRows) {
  ChartLike C = buildChartLike(20);
  SlicingProfiler P = profileRun(*C.M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  LowUtilityReport Report(CM, *C.M);
  ClassId ListClass = C.M->findClass("List");
  std::vector<SiteScore> Rows = Report.filterByClass(*C.M, {ListClass});
  for (const SiteScore &S : Rows) {
    const auto *A = cast<AllocInst>(C.M->getAllocSite(S.Site));
    EXPECT_EQ(A->Class, ListClass);
  }
}

TEST(ReportTest, ContextsAggregatePerSite) {
  // One allocation site reached through two distinct receiver contexts:
  // the report aggregates them into a single row with NumContexts == 2.
  Module M;
  ClassDecl *Box = M.addClass("Box");
  Box->addField("v", Type::makeInt());
  ClassDecl *Maker = M.addClass("Maker");
  IRBuilder B(M);
  B.beginMethod(Maker->getId(), "make", 2);
  Reg O = B.alloc(Box->getId());
  Instruction *BoxAlloc = B.block()->insts().back().get();
  B.storeField(O, Box->getId(), "v", 1);
  B.ret(O);
  B.endFunction();

  B.beginFunction("main", 0);
  Reg M1 = B.alloc(Maker->getId());
  Reg M2 = B.alloc(Maker->getId());
  Reg C = B.iconst(5);
  Reg B1 = B.vcall("make", {M1, C});
  Reg B2 = B.vcall("make", {M2, C});
  Reg V1 = B.loadField(B1, Box->getId(), "v");
  Reg V2 = B.loadField(B2, Box->getId(), "v");
  Reg S = B.add(V1, V2);
  B.ncallVoid("sink", {S});
  B.ret();
  B.endFunction();
  M.finalize();

  SlicingConfig Cfg;
  Cfg.ContextSlots = 64;
  SlicingProfiler P = profileRun(M, Cfg);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  ReportOptions Opts;
  Opts.MinCost = 0.5;
  LowUtilityReport Report(CM, M, Opts);
  AllocSiteId Site = cast<AllocInst>(BoxAlloc)->Site;
  int Rank = Report.rankOf(Site);
  ASSERT_GE(Rank, 0);
  EXPECT_EQ(Report.sites()[Rank].NumContexts, 2u);
}

} // namespace
