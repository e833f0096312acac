//===- tests/profiling/QuotientTest.cpp - Definition 1 vs Definition 2 -----===//
//
// Soundness of abstract dynamic thin slicing: the abstract graph
// (Definition 2) must be the quotient of the concrete instance graph
// (Definition 1) under the abstraction function. Checked over the random
// program corpus and two DaCapo workloads:
//
//   1. The distinct (instruction, domain) classes among concrete nodes are
//      exactly the abstract nodes, with matching frequencies.
//   2. Every concrete def-use edge maps to an abstract edge (or collapses
//      onto one node).
//   3. Abstract cost (Definition 4) over-approximates the absolute cost
//      (Definition 3) of every instance of the node — the imprecision
//      direction the paper states.
//
//===----------------------------------------------------------------------===//

#include "analysis/CostModel.h"
#include "ir/IRBuilder.h"
#include "profiling/ConcreteProfiler.h"
#include "profiling/FrozenGraph.h"
#include "profiling/SlicingProfiler.h"
#include "runtime/Interpreter.h"
#include "workloads/DaCapo.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <map>
#include <string_view>

using namespace lud;

namespace {

struct BothRuns {
  SlicingProfiler Abstract;
  ConcreteProfiler Concrete;

  explicit BothRuns(const Module &M, uint32_t Slots = 16)
      : Abstract(SlicingConfig{Slots, ~uint64_t(0), true, true, true}),
        Concrete(Slots) {
    {
      Heap H;
      Interpreter<SlicingProfiler> I(M, H, Abstract);
      RunResult R = I.run();
      EXPECT_EQ(R.Status, RunStatus::Finished);
    }
    {
      Heap H;
      Interpreter<ConcreteProfiler> I(M, H, Concrete);
      RunResult R = I.run();
      EXPECT_EQ(R.Status, RunStatus::Finished);
    }
    EXPECT_FALSE(Concrete.overflowed());
  }
};

void checkQuotient(const Module &M, const BothRuns &B) {
  (void)M;
  const DepGraph &G = B.Abstract.graph();
  const auto &CNodes = B.Concrete.nodes();

  // (1) Classes <-> abstract nodes, frequencies match.
  std::map<std::pair<InstrId, uint32_t>, uint64_t> ClassFreq;
  for (const auto &CN : CNodes)
    ++ClassFreq[{CN.Instr, CN.AbsDomain}];
  ASSERT_EQ(ClassFreq.size(), G.numNodes());
  for (const auto &[Key, Freq] : ClassFreq) {
    NodeId N = G.lookup(Key.first, Key.second);
    ASSERT_NE(N, kNoNode) << "missing abstract node for class";
    EXPECT_EQ(G.freq(N), Freq) << "frequency mismatch";
  }

  // (2) Every concrete edge maps to an abstract edge.
  const FrozenGraph F(G);
  for (CNodeId CN = 0; CN != CNodeId(CNodes.size()); ++CN) {
    NodeId From = G.lookup(CNodes[CN].Instr, CNodes[CN].AbsDomain);
    ASSERT_NE(From, kNoNode);
    for (CNodeId Succ : CNodes[CN].Out) {
      NodeId To = G.lookup(CNodes[Succ].Instr, CNodes[Succ].AbsDomain);
      ASSERT_NE(To, kNoNode);
      if (From == To)
        continue; // Collapsed self-dependence.
      bool Found = false;
      for (NodeId S : F.out(From))
        Found |= S == To;
      EXPECT_TRUE(Found) << "concrete edge missing in abstract graph";
    }
  }

  // (3) Abstract cost >= absolute cost of every instance.
  const FrozenGraph Sealed(G);
  CostModel CM(Sealed);
  for (CNodeId CN = 0; CN != CNodeId(CNodes.size()); ++CN) {
    NodeId N = G.lookup(CNodes[CN].Instr, CNodes[CN].AbsDomain);
    EXPECT_GE(CM.abstractCost(N), B.Concrete.absoluteCost(CN));
  }
}

class QuotientTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QuotientTest, AbstractIsQuotientOfConcrete) {
  RandomProgramOptions Opts;
  Opts.Seed = GetParam();
  Opts.OpsPerFunction = 20;
  Opts.NumFunctions = 4;
  std::unique_ptr<Module> M = generateRandomProgram(Opts);
  BothRuns B(*M);
  checkQuotient(*M, B);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QuotientTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(QuotientTest, HoldsOnDaCapoWorkload) {
  // sunflow's bits cache and matrix sums execute I2F, F2I, FBits and BitsF,
  // so its concrete graph has unary instances (ConcreteProfiler::onUn).
  for (const char *Name : {"chart", "sunflow"}) {
    SCOPED_TRACE(Name);
    Workload W = buildWorkload(Name, 24);
    BothRuns B(*W.M);
    checkQuotient(*W.M, B);
    if (std::string_view(Name) == "sunflow") {
      bool SawUn = false;
      for (const auto &CN : B.Concrete.nodes())
        SawUn |= isa<UnInst>(W.M->getInstr(CN.Instr));
      EXPECT_TRUE(SawUn);
    }
  }
}

TEST(QuotientTest, AbsoluteCostMatchesFigure1) {
  // On the straight-line Figure 1 program the absolute and abstract costs
  // coincide (one instance per instruction).
  Module M;
  IRBuilder Bl(M);
  Bl.beginFunction("f", 1);
  Reg Two = Bl.iconst(2);
  Reg Sh = Bl.bin(BinOp::Shr, 0, Two);
  Bl.ret(Sh);
  Bl.endFunction();
  Bl.beginFunction("main", 0);
  Reg A = Bl.iconst(0);
  Reg C = Bl.call("f", {A});
  Reg Three = Bl.iconst(3);
  Reg D = Bl.mul(C, Three);
  Reg Bv = Bl.add(C, D);
  Bl.ncallVoid("sink", {Bv});
  Bl.ret();
  Bl.endFunction();
  M.finalize();

  BothRuns B(M);
  InstrId AddId = 7;
  std::vector<CNodeId> Instances = B.Concrete.instancesOf(AddId);
  ASSERT_EQ(Instances.size(), 1u);
  EXPECT_EQ(B.Concrete.absoluteCost(Instances[0]), 7u);
  const FrozenGraph Sealed(B.Abstract.graph());
  CostModel CM(Sealed);
  EXPECT_EQ(CM.abstractCost(B.Abstract.graph().lookup(AddId, 0)), 7u);
}

TEST(QuotientTest, AbstractCostOverApproximatesInLoops) {
  // acc-independent values merged into one node make the abstract cost
  // exceed the absolute cost of early instances.
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg Acc = B.iconst(0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(20);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  B.binInto(Acc, BinOp::Add, Acc, I);
  Instruction *AccAdd = B.block()->insts().back().get();
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ncallVoid("sink", {Acc});
  B.ret();
  B.endFunction();
  M.finalize();

  BothRuns Runs(M);
  std::vector<CNodeId> Instances = Runs.Concrete.instancesOf(AccAdd->getId());
  ASSERT_EQ(Instances.size(), 20u);
  const FrozenGraph Sealed(Runs.Abstract.graph());
  CostModel CM(Sealed);
  NodeId Abs = Runs.Abstract.graph().lookup(AccAdd->getId(), 0);
  ASSERT_NE(Abs, kNoNode);
  uint64_t AbstractCost = CM.abstractCost(Abs);
  // First instance: tiny absolute cost; abstract cost covers the whole
  // loop history — strict over-approximation.
  EXPECT_LT(Runs.Concrete.absoluteCost(Instances.front()), AbstractCost);
  // Last instance: still bounded by the abstract cost.
  EXPECT_LE(Runs.Concrete.absoluteCost(Instances.back()), AbstractCost);
}

} // namespace
