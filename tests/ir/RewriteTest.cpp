//===- tests/ir/RewriteTest.cpp - ModuleRewriter surgery -------------------===//

#include "ir/Rewrite.h"

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Interpreter.h"

#include <gtest/gtest.h>

using namespace lud;

namespace {

RunResult plainRun(const Module &M) {
  ComposedProfiler<> P;
  RunResult R = runModule(M, P);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  return R;
}

void expectVerifies(const Module &M) {
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors));
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
}

/// main: a=5, c=7, u=a+c (unused), s=a*c, sink(s), ret s — the unused add
/// gives drop() something observable-free to remove.
std::unique_ptr<Module> buildArith(Reg *AOut = nullptr, Reg *SOut = nullptr) {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  Reg A = B.iconst(5);
  Reg C = B.iconst(7);
  B.add(A, C); // dead
  Reg S = B.mul(A, C);
  B.ncallVoid("sink", {S});
  B.ret(S);
  B.endFunction();
  M->finalize();
  if (AOut)
    *AOut = A;
  if (SOut)
    *SOut = S;
  return M;
}

Instruction *findFirst(Module &M, Instruction::Kind K) {
  for (const auto &F : M.functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts())
        if (I->getKind() == K)
          return I.get();
  return nullptr;
}

TEST(RewriteTest, NoEditsReproducesModule) {
  std::unique_ptr<Module> M = buildArith();
  ModuleRewriter RW(*M);
  EXPECT_FALSE(RW.changed());
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  EXPECT_EQ(Out->getNumInstrs(), M->getNumInstrs());
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(Before.ExecutedInstrs, After.ExecutedInstrs);
  EXPECT_EQ(Before.ReturnValue.asInt(), After.ReturnValue.asInt());
}

TEST(RewriteTest, DropRemovesInstruction) {
  std::unique_ptr<Module> M = buildArith();
  Instruction *Dead = findFirst(*M, Instruction::Kind::Bin); // the add
  ASSERT_NE(Dead, nullptr);
  ModuleRewriter RW(*M);
  RW.drop(Dead->getId());
  EXPECT_TRUE(RW.changed());
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  EXPECT_EQ(Out->getNumInstrs(), M->getNumInstrs() - 1);
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(After.ExecutedInstrs, Before.ExecutedInstrs - 1);
}

TEST(RewriteTest, ReplaceWithSequence) {
  Reg A = kNoReg, S = kNoReg;
  std::unique_ptr<Module> M = buildArith(&A, &S);
  // Replace s = a*c with t = a+a; s = t+t+t+... no — keep it simple and
  // exact: s = 35 via a fresh intermediate (t = 34; s = t + 1-const? two
  // instructions suffice: t = 35 into a fresh reg, s = t).
  Instruction *Mul = nullptr;
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts())
        if (auto *BI = dyn_cast<BinInst>(I.get()))
          if (BI->Op == BinOp::Mul)
            Mul = I.get();
  ASSERT_NE(Mul, nullptr);
  FuncId Main = M->findFunction("main");
  ModuleRewriter RW(*M);
  Reg T = RW.newReg(Main);
  RW.replaceWith(Mul->getId(),
                 {ConstInst::makeInt(T, 35), new AssignInst(S, T)});
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  EXPECT_EQ(Out->getNumInstrs(), M->getNumInstrs() + 1);
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(Before.ReturnValue.asInt(), After.ReturnValue.asInt());
}

TEST(RewriteTest, InsertBeforeComposesWithDrop) {
  Reg A = kNoReg, S = kNoReg;
  std::unique_ptr<Module> M = buildArith(&A, &S);
  Instruction *Dead = findFirst(*M, Instruction::Kind::Bin);
  ASSERT_NE(Dead, nullptr);
  ModuleRewriter RW(*M);
  // Drop the dead add but insert a replacement computation at the same
  // position; net instruction count is unchanged, behavior too.
  FuncId Main = M->findFunction("main");
  Reg T = RW.newReg(Main);
  RW.insertBefore(Dead->getId(), {ConstInst::makeInt(T, 99)});
  RW.drop(Dead->getId());
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  EXPECT_EQ(Out->getNumInstrs(), M->getNumInstrs());
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(Before.ExecutedInstrs, After.ExecutedInstrs);
}

TEST(RewriteTest, ReplaceTerminatorKeepsShape) {
  Reg A = kNoReg, S = kNoReg;
  std::unique_ptr<Module> M = buildArith(&A, &S);
  Instruction *Ret = findFirst(*M, Instruction::Kind::Return);
  ASSERT_NE(Ret, nullptr);
  ModuleRewriter RW(*M);
  RW.replaceWith(Ret->getId(), {new ReturnInst(A)});
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  RunResult After = plainRun(*Out);
  EXPECT_EQ(After.ReturnValue.asInt(), 5);
}

TEST(RewriteTest, AddFunctionAndRedirectCall) {
  Reg A = kNoReg, S = kNoReg;
  std::unique_ptr<Module> M = buildArith(&A, &S);
  Instruction *Mul = nullptr;
  Reg MulLhs = kNoReg, MulRhs = kNoReg;
  for (const auto &F : M->functions())
    for (const auto &BB : F->blocks())
      for (const auto &I : BB->insts())
        if (auto *BI = dyn_cast<BinInst>(I.get()))
          if (BI->Op == BinOp::Mul) {
            Mul = I.get();
            MulLhs = BI->Lhs;
            MulRhs = BI->Rhs;
          }
  ASSERT_NE(Mul, nullptr);
  ModuleRewriter RW(*M);
  FuncId Helper = RW.addFunction([](Module &Out) {
    Function *F = Out.addFunction("helper.mul", 2, 3);
    BasicBlock *B = F->addBlock();
    B->append(new BinInst(BinOp::Mul, 2, 0, 1));
    B->append(new ReturnInst(2));
  });
  EXPECT_EQ(Helper, RW.nextFuncId() - 1);
  RW.replaceWith(Mul->getId(),
                 {CallInst::makeDirect(S, Helper, {MulLhs, MulRhs})});
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  EXPECT_NE(Out->findFunction("helper.mul"), kNoFunc);
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(Before.ReturnValue.asInt(), After.ReturnValue.asInt());
}

TEST(RewriteTest, AddGlobalRoundTrip) {
  Reg A = kNoReg, S = kNoReg;
  std::unique_ptr<Module> M = buildArith(&A, &S);
  Instruction *Ret = findFirst(*M, Instruction::Kind::Return);
  ASSERT_NE(Ret, nullptr);
  size_t Globals = M->globals().size();
  FuncId Main = M->findFunction("main");
  ModuleRewriter RW(*M);
  GlobalId G = RW.addGlobal("rewrite.test.g", Type::makeInt());
  Reg T = RW.newReg(Main);
  // Route the return value through the synthesized static.
  RW.replaceWith(Ret->getId(), {new StoreStaticInst(G, S),
                                new LoadStaticInst(T, G),
                                new ReturnInst(T)});
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  EXPECT_EQ(Out->globals().size(), Globals + 1);
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.ReturnValue.asInt(), After.ReturnValue.asInt());
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
}

TEST(RewriteTest, AddClassTakesFieldsAsTheyAreEmitted) {
  Reg A = kNoReg, S = kNoReg;
  std::unique_ptr<Module> M = buildArith(&A, &S);
  Instruction *Ret = findFirst(*M, Instruction::Kind::Return);
  ASSERT_NE(Ret, nullptr);
  size_t Classes = M->classes().size();
  FuncId Main = M->findFunction("main");
  ModuleRewriter RW(*M);
  ClassId Box = RW.addClass("Box");
  EXPECT_EQ(Box, ClassId(Classes));
  FieldSlot First = RW.addField(Box, "first", Type::makeInt());
  EXPECT_EQ(First, 0u);
  // Store s into a fresh Box and return it read back; the second field is
  // declared after the code that uses it was recorded.
  Reg O = RW.newReg(Main), T = RW.newReg(Main);
  RW.insertBefore(Ret->getId(), {new AllocInst(O, Box),
                                 new StoreFieldInst(O, Box, 1, S),
                                 new LoadFieldInst(T, O, Box, 1)});
  RW.replaceWith(Ret->getId(), {new ReturnInst(T)});
  EXPECT_EQ(RW.addField(Box, "second", Type::makeInt()), 1u);
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  ASSERT_EQ(Out->classes().size(), Classes + 1);
  EXPECT_EQ(Out->findClass("Box"), Box);
  const ClassDecl *C = Out->getClass(Box);
  ASSERT_EQ(C->ownFields().size(), 2u);
  EXPECT_EQ(C->ownFields()[0].Name, "first");
  EXPECT_EQ(C->ownFields()[1].Name, "second");
  EXPECT_EQ(Out->fieldName(Box, 1), "second");
  EXPECT_EQ(Out->describeAllocSite(0).find("new Box"), 0u);
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(After.ReturnValue.asInt(), Before.ReturnValue.asInt());
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
}

TEST(RewriteTest, AppendedBlocksAreBranchTargets) {
  Reg A = kNoReg, S = kNoReg;
  std::unique_ptr<Module> M = buildArith(&A, &S);
  Instruction *Ret = findFirst(*M, Instruction::Kind::Return);
  ASSERT_NE(Ret, nullptr);
  FuncId Main = M->findFunction("main");
  size_t Blocks = M->getFunction(Main)->blocks().size();
  ModuleRewriter RW(*M);
  Reg T = RW.newReg(Main);
  // The replaced return branches to a chain of two appended blocks: the
  // first sets t = 42, the second returns it.
  uint32_t Exit = RW.appendBlock(Main, {new ReturnInst(T)});
  uint32_t Set =
      RW.appendBlock(Main, {ConstInst::makeInt(T, 42), new BrInst(Exit)});
  EXPECT_EQ(Exit, Blocks);
  EXPECT_EQ(Set, Blocks + 1);
  EXPECT_TRUE(RW.changed());
  RW.replaceWith(Ret->getId(), {new BrInst(Set)});
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  const Function *F = Out->getFunction(Main);
  ASSERT_EQ(F->blocks().size(), Blocks + 2);
  EXPECT_EQ(F->getBlock(Set)->insts().size(), 2u);
  EXPECT_EQ(F->getNumRegs(), M->getFunction(Main)->getNumRegs() + 1);
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(After.ReturnValue.asInt(), 42);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(After.ExecutedInstrs, Before.ExecutedInstrs + 3);
}

} // namespace
