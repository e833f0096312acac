//===- ir/Clone.cpp - Instruction cloning ---------------------------------===//

#include "ir/Clone.h"

#include "ir/Instruction.h"
#include "support/ErrorHandling.h"

using namespace lud;

Instruction *lud::cloneInstr(const Instruction &I) {
  switch (I.getKind()) {
  case Instruction::Kind::Const: {
    const auto *C = cast<ConstInst>(&I);
    switch (C->Lit) {
    case ConstInst::LitKind::Int:
      return ConstInst::makeInt(C->Dst, C->IntVal);
    case ConstInst::LitKind::Float:
      return ConstInst::makeFloat(C->Dst, C->FloatVal);
    case ConstInst::LitKind::Null:
      return ConstInst::makeNull(C->Dst);
    }
    lud_unreachable("unknown literal kind");
  }
  case Instruction::Kind::Assign: {
    const auto *A = cast<AssignInst>(&I);
    return new AssignInst(A->Dst, A->Src);
  }
  case Instruction::Kind::Bin: {
    const auto *B = cast<BinInst>(&I);
    return new BinInst(B->Op, B->Dst, B->Lhs, B->Rhs);
  }
  case Instruction::Kind::Un: {
    const auto *U = cast<UnInst>(&I);
    return new UnInst(U->Op, U->Dst, U->Src);
  }
  case Instruction::Kind::Alloc: {
    const auto *A = cast<AllocInst>(&I);
    return new AllocInst(A->Dst, A->Class);
  }
  case Instruction::Kind::AllocArray: {
    const auto *A = cast<AllocArrayInst>(&I);
    return new AllocArrayInst(A->Dst, A->Elem, A->Len);
  }
  case Instruction::Kind::LoadField: {
    const auto *L = cast<LoadFieldInst>(&I);
    return new LoadFieldInst(L->Dst, L->Base, L->Class, L->Slot);
  }
  case Instruction::Kind::StoreField: {
    const auto *S = cast<StoreFieldInst>(&I);
    return new StoreFieldInst(S->Base, S->Class, S->Slot, S->Src);
  }
  case Instruction::Kind::LoadStatic: {
    const auto *L = cast<LoadStaticInst>(&I);
    return new LoadStaticInst(L->Dst, L->Global);
  }
  case Instruction::Kind::StoreStatic: {
    const auto *S = cast<StoreStaticInst>(&I);
    return new StoreStaticInst(S->Global, S->Src);
  }
  case Instruction::Kind::LoadElem: {
    const auto *L = cast<LoadElemInst>(&I);
    return new LoadElemInst(L->Dst, L->Base, L->Index);
  }
  case Instruction::Kind::StoreElem: {
    const auto *S = cast<StoreElemInst>(&I);
    return new StoreElemInst(S->Base, S->Index, S->Src);
  }
  case Instruction::Kind::ArrayLen: {
    const auto *A = cast<ArrayLenInst>(&I);
    return new ArrayLenInst(A->Dst, A->Base);
  }
  case Instruction::Kind::Call: {
    const auto *C = cast<CallInst>(&I);
    if (C->isVirtual())
      return CallInst::makeVirtual(C->Dst, C->Method, C->Args);
    return CallInst::makeDirect(C->Dst, C->Callee, C->Args);
  }
  case Instruction::Kind::NativeCall: {
    const auto *N = cast<NativeCallInst>(&I);
    return new NativeCallInst(N->Dst, N->Native, N->Args);
  }
  case Instruction::Kind::Br:
    return new BrInst(cast<BrInst>(&I)->Target);
  case Instruction::Kind::CondBr: {
    const auto *C = cast<CondBrInst>(&I);
    return new CondBrInst(C->Cmp, C->Lhs, C->Rhs, C->TrueBlock,
                          C->FalseBlock);
  }
  case Instruction::Kind::Return:
    return new ReturnInst(cast<ReturnInst>(&I)->Src);
  }
  lud_unreachable("unknown instruction kind");
}
