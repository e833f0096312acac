//===- tests/analysis/Figure3Test.cpp - Figure 3 reconstruction ------------===//
//
// Reconstructs the shape of the paper's Figure 3: a method computes an
// expensive value inside a loop, stores it into a field t of a freshly
// allocated object, and the caller immediately copies that value into
// another structure. The paper's observations, checked here with exact
// hand-computed numbers for our reconstruction:
//   - the RAC of O.t equals the loop's stack work (4005 in the paper);
//   - the RAB of O.t is tiny (2 in the paper: the load and one add);
//   - a predicate reading the field directly has HRAC 1;
//   - the carrier object therefore has a huge cost-benefit imbalance and
//     tops the report.
//
//===----------------------------------------------------------------------===//

#include "../TestUtil.h"

#include "analysis/Report.h"
#include "ir/IRBuilder.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

struct Figure3Program {
  std::unique_ptr<Module> M;
  AllocSiteId CarrierSite = kNoAllocSite;
  InstrId StoreT = kNoInstr;
  InstrId LoadT = kNoInstr;
  FieldSlot SlotT = 0;
};

// Instruction ids are assigned by Module::finalize(), so builders must
// capture Instruction pointers and read ids afterwards.

/// computeB(): B b = new B; acc = sum_{i<1000} i; b.t = acc; return b.
/// main(): b = computeB(); u = b.t + 0; list[0] = u; sink(len(list)).
Figure3Program build() {
  Figure3Program Out;
  Out.M = std::make_unique<Module>();
  Module &M = *Out.M;
  ClassDecl *BCls = M.addClass("B");
  BCls->addField("t", Type::makeInt());
  bool Resolved = M.resolveField(BCls->getId(), "t", Out.SlotT);
  EXPECT_TRUE(Resolved);

  IRBuilder B(M);
  B.beginFunction("computeB", 0);
  Reg Obj = B.alloc(BCls->getId());
  Instruction *Alloc = B.block()->insts().back().get();
  Reg Acc = B.iconst(0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(1000);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  B.binInto(Acc, BinOp::Add, Acc, I);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.storeField(Obj, BCls->getId(), "t", Acc);
  Instruction *StoreInst = B.block()->insts().back().get();
  B.ret(Obj);
  B.endFunction();

  B.beginFunction("main", 0);
  Reg Carrier = B.call("computeB", {});
  Reg T = B.loadField(Carrier, BCls->getId(), "t");
  Instruction *LoadInst = B.block()->insts().back().get();
  Reg Zero = B.iconst(0);
  Reg U = B.add(T, Zero);
  Reg LenR = B.iconst(1);
  Reg List = B.allocArray(TypeKind::Int, LenR);
  Reg Idx = B.iconst(0);
  B.storeElem(List, Idx, U);
  Reg Len = B.arrayLen(List);
  B.ncallVoid("sink", {Len});
  B.ret();
  B.endFunction();
  M.finalize();
  Out.CarrierSite = cast<AllocInst>(Alloc)->Site;
  Out.StoreT = StoreInst->getId();
  Out.LoadT = LoadInst->getId();
  return Out;
}

TEST(Figure3Test, RelativeCostMatchesHandComputation) {
  Figure3Program Prog = build();
  RunResult R;
  SlicingProfiler P = profileRun(*Prog.M, {}, &R);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);

  const DepGraph &G = P.graph();
  NodeId Store = soleNodeFor(G, Prog.StoreT);
  ASSERT_NE(Store, kNoNode);
  uint64_t Tag = G.node(Store).EffectLoc.Tag;
  uint32_t I = CM.graph().locIndexOf(HeapLoc{Tag, Prog.SlotT});
  ASSERT_NE(I, FrozenGraph::npos);
  LocCostBenefit CB = CM.locCostBenefitAt(I);

  // RAC of B.t: store(1) + acc-add(1000) + acc0(1) + i-add(1000) + i0(1)
  // + one(1) = 2004. (The loop bound constant feeds only the predicate.)
  EXPECT_DOUBLE_EQ(CB.Rac, 2004.0);
  // RAB of B.t: load(1) + add(1) = 2, exactly the paper's value — the
  // expensively computed value is merely parked in the carrier.
  EXPECT_DOUBLE_EQ(CB.Rab, 2.0);
  EXPECT_EQ(CB.NumWriters, 1u);
  EXPECT_EQ(CB.NumReaders, 1u);
  EXPECT_FALSE(CB.ReachesNative);
}

TEST(Figure3Test, LoopNodeFrequenciesMatch) {
  Figure3Program Prog = build();
  SlicingProfiler P = profileRun(*Prog.M);
  const DepGraph &G = P.graph();
  // The abstract cost of the store covers the whole loop history.
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  NodeId Store = soleNodeFor(G, Prog.StoreT);
  // Abstract cost adds the alloc? No: thin slicing, the base pointer is
  // not a use. Store's backward slice == its HRAC slice here because the
  // function reads no heap.
  EXPECT_EQ(CM.abstractCost(Store), CM.hrac(Store));
}

TEST(Figure3Test, CarrierTopsTheReport) {
  Figure3Program Prog = build();
  SlicingProfiler P = profileRun(*Prog.M);
  const FrozenGraph Sealed(P.graph());
  CostModel CM(Sealed);
  LowUtilityReport Report(CM, *Prog.M);
  ASSERT_FALSE(Report.sites().empty());
  EXPECT_EQ(Report.sites()[0].Site, Prog.CarrierSite);
  // Cost ~2004 against benefit ~2: a three-orders-of-magnitude imbalance.
  EXPECT_GT(Report.sites()[0].Ratio, 100.0);
}

} // namespace
