//===- runtime/Interpreter.h - The execution engine ------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interpreter<ProfilerT>: executes a finalized Module against a Heap,
/// invoking profiler hooks at every instruction. The profiler is a template
/// policy so the uninstrumented baseline (NoopProfiler) pays nothing; this
/// is the J9 stand-in the paper's runtime analyses are implemented against.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_RUNTIME_INTERPRETER_H
#define LUD_RUNTIME_INTERPRETER_H

#include "ir/Module.h"
#include "runtime/Heap.h"
#include "runtime/Natives.h"
#include "runtime/ProfilerConcept.h"
#include "support/ErrorHandling.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace lud {

/// Per-run knobs.
struct RunConfig {
  /// Safety valve; the run stops with BudgetExceeded when hit.
  uint64_t MaxInstructions = ~uint64_t(0);
  /// Call-stack depth limit (StackOverflow trap beyond it).
  uint32_t MaxFrames = 1 << 14;
  /// Input tape for the `input` native.
  const std::vector<int64_t> *Input = nullptr;
  /// When set, `print` writes here.
  OutStream *PrintStream = nullptr;
  /// Native bindings; defaults to NativeRegistry::standard().
  const NativeRegistry *Natives = nullptr;
};

enum class RunStatus : uint8_t { Finished, Trapped, BudgetExceeded };

/// Printable status word: "finished", "trapped" or "budget-exceeded".
const char *runStatusName(RunStatus S);

/// Comparison semantics shared by every execution engine: promote to float
/// when either side is a float, otherwise compare as int64 (refs compare by
/// id). Both Interpreter and ThreadedEngine evaluate predicates and cmp*
/// instructions through this one definition, so the engines cannot drift.
inline bool evalValueCmp(CmpOp Op, const Value &L, const Value &R) {
  if (L.Kind == ValueKind::Float || R.Kind == ValueKind::Float) {
    double A = L.asFloat(), B = R.asFloat();
    switch (Op) {
    case CmpOp::Eq:
      return A == B;
    case CmpOp::Ne:
      return A != B;
    case CmpOp::Lt:
      return A < B;
    case CmpOp::Le:
      return A <= B;
    case CmpOp::Gt:
      return A > B;
    case CmpOp::Ge:
      return A >= B;
    }
  }
  int64_t A = L.asInt(), B = R.asInt();
  switch (Op) {
  case CmpOp::Eq:
    return A == B;
  case CmpOp::Ne:
    return A != B;
  case CmpOp::Lt:
    return A < B;
  case CmpOp::Le:
    return A <= B;
  case CmpOp::Gt:
    return A > B;
  case CmpOp::Ge:
    return A >= B;
  }
  lud_unreachable("unknown CmpOp");
}

struct RunResult {
  RunStatus Status = RunStatus::Finished;
  TrapKind Trap = TrapKind::None;
  /// Faulting instruction and (for NullDeref) the null base register.
  InstrId TrapInstr = kNoInstr;
  Reg TrapReg = kNoReg;
  /// All executed instruction instances (the paper's I).
  uint64_t ExecutedInstrs = 0;
  /// Interpreted (non-native) calls entered.
  uint64_t Calls = 0;
  /// Deepest frame stack observed (telemetry; deterministic per module).
  uint64_t PeakFrameDepth = 0;
  /// Value returned by the entry function (zero if void).
  Value ReturnValue;
  /// Fold of everything printed/sunk (output observability).
  uint64_t SinkHash = 0;
  /// Objects allocated during the run.
  uint64_t ObjectsAllocated = 0;
};

template <typename ProfilerT> class Interpreter {
public:
  Interpreter(const Module &M, Heap &H, ProfilerT &P, RunConfig Cfg = {})
      : M(M), TheHeap(H), Prof(P), Cfg(Cfg) {
    assert(M.isFinalized() && "module must be finalized before execution");
    bindNatives();
  }

  /// Executes the module's entry function to completion (or trap/budget).
  RunResult run() {
    RunResult Res;
    NativeContext NCtx;
    NCtx.TheHeap = &TheHeap;
    NCtx.Print = Cfg.PrintStream;
    NCtx.Input = Cfg.Input;
    Ctx = &NCtx;

    Globals.assign(M.globals().size(), Value());
    size_t ObjectsBefore = TheHeap.numObjects();

    Prof.onRunStart(M, TheHeap);
    const Function *Entry = M.getFunction(M.getEntry());
    Prof.onEntryFrame(*Entry);
    Depth = 0;
    pushFrame(Entry, kNoReg);

    Res.Status = loop(Res);
    Res.SinkHash = NCtx.SinkHash;
    Res.ExecutedInstrs = Executed;
    Res.Calls = Calls;
    Res.PeakFrameDepth = PeakDepth;
    Res.ObjectsAllocated = TheHeap.numObjects() - ObjectsBefore;
    Ctx = nullptr;
    return Res;
  }

private:
  struct Frame {
    const Function *Fn;
    uint32_t Block = 0;
    uint32_t Ip = 0;
    Reg RetDst;
    std::vector<Value> Regs;
  };

  void bindNatives() {
    const NativeRegistry &Reg =
        Cfg.Natives ? *Cfg.Natives : NativeRegistry::standard();
    Bound.assign(M.nativeNames().size(), nullptr);
    PhaseNative = kNoMethodName;
    for (size_t I = 0, E = M.nativeNames().size(); I != E; ++I) {
      const std::string &Name = M.nativeNames()[I];
      if (Name == kPhaseNativeName) {
        PhaseNative = NativeId(I);
        continue;
      }
      Bound[I] = Reg.find(Name);
    }
  }

  /// Frames are a depth-indexed stack over a reused pool: returning pops
  /// the logical depth but keeps each frame's register buffer, so a call
  /// re-entering that depth assigns in place instead of mallocing a fresh
  /// vector (the dominant allocation in call-heavy workloads).
  /// \p NumArgs registers at the front are left uninitialized: every call
  /// site copies the actuals into them immediately after pushing, so only
  /// the non-parameter tail needs clearing.
  void pushFrame(const Function *Fn, Reg RetDst, uint32_t NumArgs = 0) {
    if (Frames.size() <= Depth)
      Frames.emplace_back();
    Frame &F = Frames[Depth];
    F.Fn = Fn;
    F.Block = 0;
    F.Ip = 0;
    F.RetDst = RetDst;
    F.Regs.resize(Fn->getNumRegs());
    std::fill(F.Regs.begin() + NumArgs, F.Regs.end(), Value());
    ++Depth;
    if (Depth > PeakDepth)
      PeakDepth = Depth;
  }

  /// Reports a trap into \p Res and notifies the profiler.
  RunStatus trap(RunResult &Res, const Instruction &I, TrapKind K,
                 Reg FaultReg = kNoReg) {
    Res.Trap = K;
    Res.TrapInstr = I.getId();
    Res.TrapReg = FaultReg;
    Prof.onTrap(I, K, FaultReg);
    return RunStatus::Trapped;
  }

  static bool evalCmp(CmpOp Op, const Value &L, const Value &R) {
    return evalValueCmp(Op, L, R);
  }

  /// The fetch-execute loop. Returns the final status; on Finished the
  /// entry function's return value is stored into \p Res.
  RunStatus loop(RunResult &Res) {
    // The current frame and basic block are loop-carried locals, refreshed
    // only when control flow changes them (branch, call, return): the
    // straight-line fetch path then costs one indexed load instead of
    // re-walking Frames -> Fn -> block table every instruction.
    Frame *FP = &Frames[Depth - 1];
    const BasicBlock *BB = FP->Fn->getBlock(FP->Block);
    while (true) {
      if (Executed >= Cfg.MaxInstructions)
        return RunStatus::BudgetExceeded;
      Frame &F = *FP;
      assert(F.Ip < BB->insts().size() && "fell off a basic block");
      const Instruction *I = BB->insts()[F.Ip].get();
      ++Executed;

      switch (I->getKind()) {
      case Instruction::Kind::Const: {
        const auto *C = cast<ConstInst>(I);
        switch (C->Lit) {
        case ConstInst::LitKind::Int:
          F.Regs[C->Dst] = Value::makeInt(C->IntVal);
          break;
        case ConstInst::LitKind::Float:
          F.Regs[C->Dst] = Value::makeFloat(C->FloatVal);
          break;
        case ConstInst::LitKind::Null:
          F.Regs[C->Dst] = Value::null();
          break;
        }
        Prof.onConst(*C);
        break;
      }
      case Instruction::Kind::Assign: {
        const auto *A = cast<AssignInst>(I);
        F.Regs[A->Dst] = F.Regs[A->Src];
        Prof.onAssign(*A);
        break;
      }
      case Instruction::Kind::Bin: {
        const auto *B = cast<BinInst>(I);
        if (!execBin(F, *B))
          return trap(Res, *I, TrapKind::DivByZero);
        Prof.onBin(*B);
        break;
      }
      case Instruction::Kind::Un: {
        const auto *U = cast<UnInst>(I);
        execUn(F, *U);
        Prof.onUn(*U);
        break;
      }
      case Instruction::Kind::Alloc: {
        const auto *A = cast<AllocInst>(I);
        uint32_t Slots = M.getClass(A->Class)->NumSlots;
        ObjId O = TheHeap.allocObject(A->Class, Slots);
        F.Regs[A->Dst] = Value::makeRef(O);
        Prof.onAlloc(*A, O);
        break;
      }
      case Instruction::Kind::AllocArray: {
        const auto *A = cast<AllocArrayInst>(I);
        int64_t Len = F.Regs[A->Len].asInt();
        if (Len < 0 || Len > int64_t(UINT32_MAX))
          return trap(Res, *I, TrapKind::OutOfBounds, A->Len);
        ObjId O = TheHeap.allocArray(A->Elem, uint32_t(Len));
        F.Regs[A->Dst] = Value::makeRef(O);
        Prof.onAllocArray(*A, O);
        break;
      }
      case Instruction::Kind::LoadField: {
        const auto *L = cast<LoadFieldInst>(I);
        const Value &Base = F.Regs[L->Base];
        if (Base.isNullRef() || !Base.isRef())
          return trap(Res, *I, TrapKind::NullDeref, L->Base);
        HeapObject &O = TheHeap.obj(Base.R);
        assert(L->Slot < O.Slots.size() && "field slot out of range");
        F.Regs[L->Dst] = O.Slots[L->Slot];
        Prof.onLoadField(*L, Base.R, F.Regs[L->Dst]);
        break;
      }
      case Instruction::Kind::StoreField: {
        const auto *S = cast<StoreFieldInst>(I);
        const Value &Base = F.Regs[S->Base];
        if (Base.isNullRef() || !Base.isRef())
          return trap(Res, *I, TrapKind::NullDeref, S->Base);
        HeapObject &O = TheHeap.obj(Base.R);
        assert(S->Slot < O.Slots.size() && "field slot out of range");
        O.Slots[S->Slot] = F.Regs[S->Src];
        Prof.onStoreField(*S, Base.R, F.Regs[S->Src]);
        break;
      }
      case Instruction::Kind::LoadStatic: {
        const auto *L = cast<LoadStaticInst>(I);
        F.Regs[L->Dst] = Globals[L->Global];
        Prof.onLoadStatic(*L, F.Regs[L->Dst]);
        break;
      }
      case Instruction::Kind::StoreStatic: {
        const auto *S = cast<StoreStaticInst>(I);
        Globals[S->Global] = F.Regs[S->Src];
        Prof.onStoreStatic(*S, F.Regs[S->Src]);
        break;
      }
      case Instruction::Kind::LoadElem: {
        const auto *L = cast<LoadElemInst>(I);
        const Value &Base = F.Regs[L->Base];
        if (Base.isNullRef() || !Base.isRef())
          return trap(Res, *I, TrapKind::NullDeref, L->Base);
        HeapObject &O = TheHeap.obj(Base.R);
        int64_t Idx = F.Regs[L->Index].asInt();
        if (Idx < 0 || uint64_t(Idx) >= O.Slots.size())
          return trap(Res, *I, TrapKind::OutOfBounds, L->Index);
        F.Regs[L->Dst] = O.Slots[Idx];
        Prof.onLoadElem(*L, Base.R, uint32_t(Idx), F.Regs[L->Dst]);
        break;
      }
      case Instruction::Kind::StoreElem: {
        const auto *S = cast<StoreElemInst>(I);
        const Value &Base = F.Regs[S->Base];
        if (Base.isNullRef() || !Base.isRef())
          return trap(Res, *I, TrapKind::NullDeref, S->Base);
        HeapObject &O = TheHeap.obj(Base.R);
        int64_t Idx = F.Regs[S->Index].asInt();
        if (Idx < 0 || uint64_t(Idx) >= O.Slots.size())
          return trap(Res, *I, TrapKind::OutOfBounds, S->Index);
        O.Slots[Idx] = F.Regs[S->Src];
        Prof.onStoreElem(*S, Base.R, uint32_t(Idx), F.Regs[S->Src]);
        break;
      }
      case Instruction::Kind::ArrayLen: {
        const auto *A = cast<ArrayLenInst>(I);
        const Value &Base = F.Regs[A->Base];
        if (Base.isNullRef() || !Base.isRef())
          return trap(Res, *I, TrapKind::NullDeref, A->Base);
        F.Regs[A->Dst] =
            Value::makeInt(int64_t(TheHeap.obj(Base.R).Slots.size()));
        Prof.onArrayLen(*A, Base.R);
        break;
      }
      case Instruction::Kind::Call: {
        const auto *C = cast<CallInst>(I);
        const Function *Callee;
        ObjId Receiver = kNullObj;
        if (C->isVirtual()) {
          const Value &Recv = F.Regs[C->Args[0]];
          if (Recv.isNullRef() || !Recv.isRef())
            return trap(Res, *I, TrapKind::NullDeref, C->Args[0]);
          Receiver = Recv.R;
          const HeapObject &O = TheHeap.obj(Receiver);
          if (O.IsArray)
            return trap(Res, *I, TrapKind::BadVirtualCall, C->Args[0]);
          FuncId Target = M.lookupMethod(O.Class, C->Method);
          if (Target == kNoFunc)
            return trap(Res, *I, TrapKind::BadVirtualCall, C->Args[0]);
          Callee = M.getFunction(Target);
        } else {
          Callee = M.getFunction(C->Callee);
          if (Callee->isMethod() && !C->Args.empty()) {
            const Value &Recv = F.Regs[C->Args[0]];
            if (Recv.isRef() && !Recv.isNullRef())
              Receiver = Recv.R;
          }
        }
        if (C->Args.size() != Callee->getNumParams())
          lud_unreachable("call arity mismatch survived verification");
        if (Depth >= Cfg.MaxFrames)
          return trap(Res, *I, TrapKind::StackOverflow);
        Prof.onCallEnter(*C, *Callee, Receiver);
        ++Calls;
        // Advance the caller past the call before pushing.
        ++F.Ip;
        pushFrame(Callee, C->Dst, uint32_t(C->Args.size()));
        Frame &NF = Frames[Depth - 1];
        Frame &CF = Frames[Depth - 2];
        for (size_t A = 0, E = C->Args.size(); A != E; ++A)
          NF.Regs[A] = CF.Regs[C->Args[A]];
        FP = &NF;
        BB = NF.Fn->getBlock(0);
        continue; // Do not bump Ip again.
      }
      case Instruction::Kind::NativeCall: {
        const auto *N = cast<NativeCallInst>(I);
        if (N->Native == PhaseNative) {
          int64_t Phase =
              N->Args.empty() ? 0 : F.Regs[N->Args[0]].asInt();
          Prof.onPhase(Phase);
          break;
        }
        const NativeDecl *D = Bound[N->Native];
        if (!D)
          return trap(Res, *I, TrapKind::UnknownNative);
        ArgScratch.clear();
        for (Reg A : N->Args)
          ArgScratch.push_back(F.Regs[A]);
        Value R = D->Fn(*Ctx, ArgScratch.data(), ArgScratch.size());
        if (N->Dst != kNoReg)
          F.Regs[N->Dst] = D->HasResult ? R : Value();
        Prof.onNativeCall(*N);
        break;
      }
      case Instruction::Kind::Br: {
        F.Block = cast<BrInst>(I)->Target;
        F.Ip = 0;
        BB = F.Fn->getBlock(F.Block);
        continue;
      }
      case Instruction::Kind::CondBr: {
        const auto *C = cast<CondBrInst>(I);
        bool Taken = evalCmp(C->Cmp, F.Regs[C->Lhs], F.Regs[C->Rhs]);
        Prof.onPredicate(*C, Taken);
        F.Block = Taken ? C->TrueBlock : C->FalseBlock;
        F.Ip = 0;
        BB = F.Fn->getBlock(F.Block);
        continue;
      }
      case Instruction::Kind::Return: {
        const auto *R = cast<ReturnInst>(I);
        Value Ret = R->Src == kNoReg ? Value() : F.Regs[R->Src];
        Prof.onReturn(*R);
        Reg Dst = F.RetDst;
        --Depth;
        if (Depth == 0) {
          Res.ReturnValue = Ret;
          return RunStatus::Finished;
        }
        FP = &Frames[Depth - 1];
        BB = FP->Fn->getBlock(FP->Block);
        if (Dst != kNoReg)
          FP->Regs[Dst] = Ret;
        Prof.onReturnBound(Dst);
        continue;
      }
      }
      ++F.Ip;
    }
  }

  bool execBin(Frame &F, const BinInst &B) {
    const Value &L = F.Regs[B.Lhs];
    const Value &R = F.Regs[B.Rhs];
    bool Fl = L.Kind == ValueKind::Float || R.Kind == ValueKind::Float;
    switch (B.Op) {
    case BinOp::Add:
      F.Regs[B.Dst] = Fl ? Value::makeFloat(L.asFloat() + R.asFloat())
                         : Value::makeInt(L.asInt() + R.asInt());
      return true;
    case BinOp::Sub:
      F.Regs[B.Dst] = Fl ? Value::makeFloat(L.asFloat() - R.asFloat())
                         : Value::makeInt(L.asInt() - R.asInt());
      return true;
    case BinOp::Mul:
      F.Regs[B.Dst] = Fl ? Value::makeFloat(L.asFloat() * R.asFloat())
                         : Value::makeInt(L.asInt() * R.asInt());
      return true;
    case BinOp::Div:
      if (Fl) {
        F.Regs[B.Dst] = Value::makeFloat(L.asFloat() / R.asFloat());
        return true;
      }
      if (R.asInt() == 0)
        return false;
      F.Regs[B.Dst] = Value::makeInt(L.asInt() / R.asInt());
      return true;
    case BinOp::Rem:
      if (Fl) {
        F.Regs[B.Dst] = Value::makeFloat(std::fmod(L.asFloat(), R.asFloat()));
        return true;
      }
      if (R.asInt() == 0)
        return false;
      F.Regs[B.Dst] = Value::makeInt(L.asInt() % R.asInt());
      return true;
    case BinOp::Shl:
      F.Regs[B.Dst] = Value::makeInt(int64_t(uint64_t(L.asInt())
                                             << (R.asInt() & 63)));
      return true;
    case BinOp::Shr:
      F.Regs[B.Dst] = Value::makeInt(L.asInt() >> (R.asInt() & 63));
      return true;
    case BinOp::And:
      F.Regs[B.Dst] = Value::makeInt(L.asInt() & R.asInt());
      return true;
    case BinOp::Or:
      F.Regs[B.Dst] = Value::makeInt(L.asInt() | R.asInt());
      return true;
    case BinOp::Xor:
      F.Regs[B.Dst] = Value::makeInt(L.asInt() ^ R.asInt());
      return true;
    case BinOp::CmpEq:
      F.Regs[B.Dst] = Value::makeInt(evalCmp(CmpOp::Eq, L, R));
      return true;
    case BinOp::CmpNe:
      F.Regs[B.Dst] = Value::makeInt(evalCmp(CmpOp::Ne, L, R));
      return true;
    case BinOp::CmpLt:
      F.Regs[B.Dst] = Value::makeInt(evalCmp(CmpOp::Lt, L, R));
      return true;
    case BinOp::CmpLe:
      F.Regs[B.Dst] = Value::makeInt(evalCmp(CmpOp::Le, L, R));
      return true;
    case BinOp::CmpGt:
      F.Regs[B.Dst] = Value::makeInt(evalCmp(CmpOp::Gt, L, R));
      return true;
    case BinOp::CmpGe:
      F.Regs[B.Dst] = Value::makeInt(evalCmp(CmpOp::Ge, L, R));
      return true;
    }
    lud_unreachable("unknown BinOp");
  }

  void execUn(Frame &F, const UnInst &U) {
    const Value &S = F.Regs[U.Src];
    switch (U.Op) {
    case UnOp::Neg:
      F.Regs[U.Dst] = S.Kind == ValueKind::Float
                          ? Value::makeFloat(-S.F)
                          : Value::makeInt(-S.asInt());
      return;
    case UnOp::Not:
      F.Regs[U.Dst] = Value::makeInt(~S.asInt());
      return;
    case UnOp::I2F:
      F.Regs[U.Dst] = Value::makeFloat(S.asFloat());
      return;
    case UnOp::F2I:
      F.Regs[U.Dst] = Value::makeInt(S.asInt());
      return;
    case UnOp::FBits: {
      double D = S.asFloat();
      int64_t Bits;
      std::memcpy(&Bits, &D, sizeof(Bits));
      F.Regs[U.Dst] = Value::makeInt(Bits);
      return;
    }
    case UnOp::BitsF: {
      int64_t Bits = S.asInt();
      double D;
      std::memcpy(&D, &Bits, sizeof(D));
      F.Regs[U.Dst] = Value::makeFloat(D);
      return;
    }
    }
    lud_unreachable("unknown UnOp");
  }

  const Module &M;
  Heap &TheHeap;
  ProfilerT &Prof;
  RunConfig Cfg;
  std::vector<Frame> Frames;
  size_t Depth = 0;
  std::vector<Value> Globals;
  std::vector<const NativeDecl *> Bound;
  std::vector<Value> ArgScratch;
  NativeContext *Ctx = nullptr;
  NativeId PhaseNative = kNoMethodName;
  uint64_t Executed = 0;
  uint64_t Calls = 0;
  uint64_t PeakDepth = 0;
};

/// Convenience: one-shot execution with a fresh heap.
template <typename ProfilerT>
RunResult runModule(const Module &M, ProfilerT &P, RunConfig Cfg = {}) {
  Heap H;
  Interpreter<ProfilerT> Interp(M, H, P, Cfg);
  return Interp.run();
}

} // namespace lud

#endif // LUD_RUNTIME_INTERPRETER_H
