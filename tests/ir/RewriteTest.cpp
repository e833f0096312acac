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

/// main: b0 a=5, c=7, br b1; b1 u=a+c (unused), s=a*c, sink(s), ret s —
/// the two Bin instructions of b1 can move up into b0.
std::unique_ptr<Module> buildTwoBlocks() {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  Reg A = B.iconst(5);
  Reg C = B.iconst(7);
  BasicBlock *Next = B.newBlock();
  B.br(Next);
  B.setBlock(Next);
  B.add(A, C);
  Reg S = B.mul(A, C);
  B.ncallVoid("sink", {S});
  B.ret(S);
  B.endFunction();
  M->finalize();
  return M;
}

/// Every instruction of function \p F, printed, block by block.
std::vector<std::string> bodyOf(const Module &M, FuncId F) {
  std::vector<std::string> Out;
  for (const auto &BB : M.getFunction(F)->blocks())
    for (const auto &I : BB->insts())
      Out.push_back(instToString(M, *I));
  return Out;
}

TEST(RewriteTest, MoveBeforeCrossesBlocksInOrder) {
  std::unique_ptr<Module> M = buildTwoBlocks();
  const Function *Main = M->getFunction(M->findFunction("main"));
  const BasicBlock *B0 = Main->getBlock(0), *B1 = Main->getBlock(1);
  const Instruction *Add = B1->insts()[0].get(), *Mul = B1->insts()[1].get();
  ModuleRewriter RW(*M);
  RW.moveBefore(B0->terminator()->getId(), {Add->getId(), Mul->getId()});
  EXPECT_TRUE(RW.changed());
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  EXPECT_EQ(Out->getNumInstrs(), M->getNumInstrs());
  const Function *OutMain = Out->getFunction(Main->getId());
  const BasicBlock *O0 = OutMain->getBlock(0), *O1 = OutMain->getBlock(1);
  ASSERT_EQ(O0->insts().size(), 5u);
  EXPECT_EQ(O1->insts().size(), 2u);
  EXPECT_EQ(instToString(*Out, *O0->insts()[2]), instToString(*M, *Add));
  EXPECT_EQ(instToString(*Out, *O0->insts()[3]), instToString(*M, *Mul));
  EXPECT_TRUE(O0->terminator()->isTerminator());
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(Before.ReturnValue.asInt(), After.ReturnValue.asInt());
  EXPECT_EQ(Before.ExecutedInstrs, After.ExecutedInstrs);
}

TEST(RewriteTest, MoveBeforeComposesWithInsertBefore) {
  std::unique_ptr<Module> M = buildTwoBlocks();
  FuncId MainId = M->findFunction("main");
  const Function *Main = M->getFunction(MainId);
  const Instruction *Br = Main->getBlock(0)->terminator();
  const Instruction *Add = Main->getBlock(1)->insts()[0].get();
  const Instruction *Mul = Main->getBlock(1)->insts()[1].get();
  ModuleRewriter RW(*M);
  Reg T = RW.newReg(MainId), U = RW.newReg(MainId);
  // Sequences aimed at one target land in call order.
  RW.insertBefore(Br->getId(), {ConstInst::makeInt(T, 1)});
  RW.moveBefore(Br->getId(), {Mul->getId()});
  RW.insertBefore(Br->getId(), {ConstInst::makeInt(U, 2)});
  RW.moveBefore(Br->getId(), {Add->getId()});
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);
  const auto &Got = Out->getFunction(MainId)->entry()->insts();
  ASSERT_EQ(Got.size(), 7u);
  ASSERT_TRUE(isa<ConstInst>(Got[2].get()) && isa<ConstInst>(Got[4].get()));
  EXPECT_EQ(cast<ConstInst>(Got[2].get())->Dst, T);
  EXPECT_EQ(instToString(*Out, *Got[3]), instToString(*M, *Mul));
  EXPECT_EQ(cast<ConstInst>(Got[4].get())->Dst, U);
  EXPECT_EQ(instToString(*Out, *Got[5]), instToString(*M, *Add));
  EXPECT_EQ(instToString(*Out, *Got[6]), instToString(*M, *Br));
  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.SinkHash, After.SinkHash);
  EXPECT_EQ(After.ExecutedInstrs, Before.ExecutedInstrs + 2);
}

/// twice(x): d = x+x (unused), t = x*2, ret t; main: r = twice(21),
/// sink(r), ret r.
std::unique_ptr<Module> buildTwice() {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("twice", 1);
  B.add(0, 0);
  Reg Two = B.iconst(2);
  B.ret(B.mul(0, Two));
  B.endFunction();
  B.beginFunction("main", 0);
  Reg R = B.call("twice", {B.iconst(21)});
  B.ncallVoid("sink", {R});
  B.ret(R);
  B.endFunction();
  M->finalize();
  return M;
}

TEST(RewriteTest, CopyFunctionReplacesOnlyInTheCopy) {
  std::unique_ptr<Module> M = buildTwice();
  FuncId Twice = M->findFunction("twice");
  const BasicBlock *Body = M->getFunction(Twice)->entry();
  const Instruction *Dead = Body->insts()[0].get();
  const auto *Mul = cast<BinInst>(Body->insts()[2].get());
  const Instruction *Call = findFirst(*M, Instruction::Kind::Call);
  ASSERT_NE(Call, nullptr);
  ModuleRewriter RW(*M);
  // The source loses its dead add; the copy keeps it and returns x+7.
  RW.drop(Dead->getId());
  Reg Seven = Mul->Rhs;
  FuncId Copy = RW.copyFunction(
      Twice, "twice_plus7",
      {{Body->insts()[1]->getId(), {ConstInst::makeInt(Seven, 7)}},
       {Mul->getId(), {new BinInst(BinOp::Add, Mul->Dst, 0, Seven)}}});
  EXPECT_EQ(Copy, FuncId(M->functions().size()));
  EXPECT_EQ(RW.nextFuncId(), Copy + 1);
  RW.replaceWith(Call->getId(),
                 {CallInst::makeDirect(cast<CallInst>(Call)->Dst, Copy,
                                       cast<CallInst>(Call)->Args)});
  std::unique_ptr<Module> Out = RW.apply();
  expectVerifies(*Out);

  const Function *C = Out->getFunction(Copy);
  EXPECT_EQ(C->getName(), "twice_plus7");
  EXPECT_EQ(Out->findFunction("twice_plus7"), Copy);
  EXPECT_EQ(C->getNumParams(), 1u);
  EXPECT_EQ(C->getNumRegs(), M->getFunction(Twice)->getNumRegs());
  EXPECT_FALSE(C->isMethod());
  std::vector<std::string> Src = bodyOf(*M, Twice);
  std::vector<std::string> Kept = bodyOf(*Out, Twice);
  std::vector<std::string> Copied = bodyOf(*Out, Copy);
  // The source's edit stays in the source, the copy's in the copy.
  EXPECT_EQ(Kept, std::vector<std::string>(Src.begin() + 1, Src.end()));
  ASSERT_EQ(Copied.size(), Src.size());
  EXPECT_EQ(Copied[0], Src[0]);
  EXPECT_NE(Copied[1], Src[1]);
  EXPECT_NE(Copied[2], Src[2]);
  EXPECT_EQ(Copied[3], Src[3]);

  RunResult Before = plainRun(*M), After = plainRun(*Out);
  EXPECT_EQ(Before.ReturnValue.asInt(), 42);
  EXPECT_EQ(After.ReturnValue.asInt(), 28);
}

TEST(RewriteTest, DiscardedRewriterFreesItsEdits) {
  // Under ASan this leaks if a copy's replacement or a moved copy is not
  // freed when apply() never runs.
  std::unique_ptr<Module> M = buildTwice();
  FuncId Twice = M->findFunction("twice");
  const BasicBlock *Body = M->getFunction(Twice)->entry();
  ModuleRewriter RW(*M);
  RW.copyFunction(Twice, "twice_copy",
                  {{Body->insts()[0]->getId(),
                    {new BinInst(BinOp::Sub, 1, 0, 0)}}});
  RW.moveBefore(Body->terminator()->getId(), {Body->insts()[0]->getId()});
  EXPECT_TRUE(RW.changed());
}

} // namespace
