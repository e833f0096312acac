//===- ir/Verifier.cpp - Structural IR validation --------------------------===//

#include "ir/Verifier.h"

#include "ir/Module.h"
#include "ir/Rewrite.h"

using namespace lud;

namespace {

/// Collects defects for one function at a time.
class FunctionVerifier {
public:
  FunctionVerifier(const Module &M, const Function &F,
                   std::vector<std::string> &Errors)
      : M(M), F(F), Errors(Errors) {}

  void run() {
    if (F.blocks().empty()) {
      error("function has no blocks");
      return;
    }
    for (const auto &BB : F.blocks())
      verifyBlock(*BB);
  }

private:
  void error(const std::string &Msg) {
    Errors.push_back("in " + F.getName() + ": " + Msg);
  }

  void checkReg(Reg R, const char *What) {
    if (R != kNoReg && R >= F.getNumRegs())
      error(std::string(What) + " register r" + std::to_string(R) +
            " out of range (frame has " + std::to_string(F.getNumRegs()) +
            ")");
  }

  void checkUseReg(Reg R, const char *What) {
    if (R == kNoReg) {
      error(std::string(What) + " register is the kNoReg sentinel");
      return;
    }
    checkReg(R, What);
  }

  void checkBlock(uint32_t B) {
    if (B >= F.blocks().size())
      error("branch target bb" + std::to_string(B) + " out of range");
  }

  void checkFieldAccess(ClassId C, FieldSlot Slot) {
    if (C >= M.classes().size()) {
      error("field access names unknown class");
      return;
    }
    if (Slot >= M.getClass(C)->NumSlots)
      error("field slot " + std::to_string(Slot) + " out of range for class " +
            M.getClass(C)->getName());
  }

  void verifyBlock(const BasicBlock &BB) {
    if (BB.empty()) {
      error("bb" + std::to_string(BB.getId()) + " is empty");
      return;
    }
    for (const auto &IPtr : BB.insts()) {
      const Instruction *I = IPtr.get();
      bool IsLast = (I == BB.terminator());
      if (I->isTerminator() != IsLast)
        error("bb" + std::to_string(BB.getId()) +
              (IsLast ? " does not end with a terminator"
                      : " has a terminator in the middle"));
      verifyInst(*I);
    }
  }

  void verifyInst(const Instruction &I) {
    switch (I.getKind()) {
    case Instruction::Kind::Const:
      checkUseReg(cast<ConstInst>(&I)->Dst, "dst");
      break;
    case Instruction::Kind::Assign: {
      const auto *A = cast<AssignInst>(&I);
      checkUseReg(A->Dst, "dst");
      checkUseReg(A->Src, "src");
      break;
    }
    case Instruction::Kind::Bin: {
      const auto *B = cast<BinInst>(&I);
      checkUseReg(B->Dst, "dst");
      checkUseReg(B->Lhs, "lhs");
      checkUseReg(B->Rhs, "rhs");
      break;
    }
    case Instruction::Kind::Un: {
      const auto *U = cast<UnInst>(&I);
      checkUseReg(U->Dst, "dst");
      checkUseReg(U->Src, "src");
      break;
    }
    case Instruction::Kind::Alloc: {
      const auto *A = cast<AllocInst>(&I);
      checkUseReg(A->Dst, "dst");
      if (A->Class >= M.classes().size())
        error("alloc of unknown class");
      if (A->Site == kNoAllocSite)
        error("alloc site not numbered (module not finalized?)");
      break;
    }
    case Instruction::Kind::AllocArray: {
      const auto *A = cast<AllocArrayInst>(&I);
      checkUseReg(A->Dst, "dst");
      checkUseReg(A->Len, "length");
      if (A->Site == kNoAllocSite)
        error("alloc site not numbered (module not finalized?)");
      break;
    }
    case Instruction::Kind::LoadField: {
      const auto *L = cast<LoadFieldInst>(&I);
      checkUseReg(L->Dst, "dst");
      checkUseReg(L->Base, "base");
      checkFieldAccess(L->Class, L->Slot);
      break;
    }
    case Instruction::Kind::StoreField: {
      const auto *S = cast<StoreFieldInst>(&I);
      checkUseReg(S->Base, "base");
      checkUseReg(S->Src, "src");
      checkFieldAccess(S->Class, S->Slot);
      break;
    }
    case Instruction::Kind::LoadStatic: {
      const auto *L = cast<LoadStaticInst>(&I);
      checkUseReg(L->Dst, "dst");
      if (L->Global >= M.globals().size())
        error("load of unknown global");
      break;
    }
    case Instruction::Kind::StoreStatic: {
      const auto *S = cast<StoreStaticInst>(&I);
      checkUseReg(S->Src, "src");
      if (S->Global >= M.globals().size())
        error("store to unknown global");
      break;
    }
    case Instruction::Kind::LoadElem: {
      const auto *L = cast<LoadElemInst>(&I);
      checkUseReg(L->Dst, "dst");
      checkUseReg(L->Base, "base");
      checkUseReg(L->Index, "index");
      break;
    }
    case Instruction::Kind::StoreElem: {
      const auto *S = cast<StoreElemInst>(&I);
      checkUseReg(S->Base, "base");
      checkUseReg(S->Index, "index");
      checkUseReg(S->Src, "src");
      break;
    }
    case Instruction::Kind::ArrayLen: {
      const auto *A = cast<ArrayLenInst>(&I);
      checkUseReg(A->Dst, "dst");
      checkUseReg(A->Base, "base");
      break;
    }
    case Instruction::Kind::Call: {
      const auto *C = cast<CallInst>(&I);
      checkReg(C->Dst, "dst");
      for (Reg A : C->Args)
        checkUseReg(A, "argument");
      if (C->isVirtual()) {
        if (C->Args.empty())
          error("virtual call without a receiver");
        if (C->Method >= M.methodNames().size())
          error("virtual call of unknown method name");
      } else {
        if (C->Callee >= M.functions().size()) {
          error("direct call of unknown function");
          break;
        }
        const Function *Callee = M.getFunction(C->Callee);
        if (C->Args.size() != Callee->getNumParams())
          error("call to " + Callee->getName() + " passes " +
                std::to_string(C->Args.size()) + " args, expected " +
                std::to_string(Callee->getNumParams()));
      }
      break;
    }
    case Instruction::Kind::NativeCall: {
      const auto *N = cast<NativeCallInst>(&I);
      checkReg(N->Dst, "dst");
      if (N->Native >= M.nativeNames().size())
        error("native call of unknown native");
      for (Reg A : N->Args)
        checkUseReg(A, "argument");
      break;
    }
    case Instruction::Kind::Br:
      checkBlock(cast<BrInst>(&I)->Target);
      break;
    case Instruction::Kind::CondBr: {
      const auto *C = cast<CondBrInst>(&I);
      checkUseReg(C->Lhs, "lhs");
      checkUseReg(C->Rhs, "rhs");
      checkBlock(C->TrueBlock);
      checkBlock(C->FalseBlock);
      break;
    }
    case Instruction::Kind::Return:
      checkReg(cast<ReturnInst>(&I)->Src, "return");
      break;
    }
  }

  const Module &M;
  const Function &F;
  std::vector<std::string> &Errors;
};

/// The generator post-condition: every register a function reads is a
/// parameter or written by some instruction of the same function. Plain
/// verifyModule allows reading never-written registers (they hold the
/// default Int 0), which is fine for minimized repros but in generated
/// code always indicates a generator bug.
void checkUsesAreDefined(const Function &F,
                         std::vector<std::string> &Errors) {
  std::vector<bool> Defined(F.getNumRegs(), false);
  for (unsigned P = 0; P != F.getNumParams() && P < Defined.size(); ++P)
    Defined[P] = true;
  for (const auto &BB : F.blocks())
    for (const auto &IPtr : BB->insts())
      if (Reg R = definedReg(*IPtr); R != kNoReg && R < Defined.size())
        Defined[R] = true;
  std::vector<Reg> Used;
  for (const auto &BB : F.blocks())
    for (const auto &IPtr : BB->insts()) {
      Used.clear();
      appendUsedRegs(*IPtr, Used);
      for (Reg R : Used)
        if (R != kNoReg && R < Defined.size() && !Defined[R])
          Errors.push_back("in " + F.getName() + ": r" + std::to_string(R) +
                           " is read but never written");
    }
}

} // namespace

bool lud::verifyModule(const Module &M, std::vector<std::string> &Errors) {
  size_t Before = Errors.size();
  if (!M.isFinalized())
    Errors.push_back("module is not finalized");
  for (const auto &F : M.functions())
    FunctionVerifier(M, *F, Errors).run();
  FuncId Entry = M.getEntry();
  if (Entry == kNoFunc)
    Errors.push_back("module has no entry function (expected 'main')");
  else if (M.getFunction(Entry)->getNumParams() != 0)
    Errors.push_back("entry function must take no parameters");
  return Errors.size() == Before;
}

bool lud::verifyGeneratedModule(const Module &M,
                                std::vector<std::string> &Errors) {
  size_t Before = Errors.size();
  verifyModule(M, Errors);
  for (const auto &F : M.functions())
    checkUsesAreDefined(*F, Errors);
  return Errors.size() == Before;
}
