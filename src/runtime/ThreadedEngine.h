//===- runtime/ThreadedEngine.h - Direct-threaded engine -------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ThreadedEngine<ProfilerT>: the fast execution backend. Each ir::Function
/// is pre-decoded, on first call, into a dense stream of fixed-size DIns
/// records — one per instruction, operands flattened into plain integers,
/// class layouts / native bindings / branch targets resolved at decode time
/// — and the stream is executed with direct-threaded dispatch: every DIns
/// carries the address of its handler, so the hot path is "run handler,
/// bump counter, jump through the next record" with no virtual dispatch,
/// no hash lookups, no unique_ptr chasing and no Value re-boxing. The
/// handler addresses come from the address-of-label extension that GCC and
/// Clang, the project's only compilers, provide.
///
/// The decode cache is memoized per engine instance: decodedFn() returns
/// the existing stream or fills the function's slot once, the same
/// build-on-first-touch shape thorin's Emitter uses for defs_. Functions
/// that never run are never decoded.
///
/// Semantics are defined by runtime/Interpreter.h: identical trap and
/// budget ordering, identical profiler hook sequence and arguments (hooks
/// fire after the operation, onCallEnter before the callee frame push), so
/// any profiler pipeline — Noop, Slicing, composed clients, the trace
/// recorder — observes a byte-identical event stream on either engine.
/// tests/runtime/EngineEquivalenceTest.cpp and the lud-fuzz engine oracle
/// hold the two backends to that contract.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_RUNTIME_THREADEDENGINE_H
#define LUD_RUNTIME_THREADEDENGINE_H

#include "runtime/Engine.h"
#include "runtime/Interpreter.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

namespace lud {

// One decoded opcode per executed variant: the decoder resolves the nested
// kind/op switches of the tree-walker once, so the execution loop never
// re-discriminates. Order matters in three places: the Bin, Un and CondBr
// families are laid out in BinOp / UnOp / CmpOp order so the decoder can
// compute the opcode by addition.
#define LUD_DOPC_LIST(X)                                                       \
  X(ConstInt)                                                                  \
  X(ConstFloat)                                                                \
  X(ConstNull)                                                                 \
  X(Assign)                                                                    \
  X(BinAdd)                                                                    \
  X(BinSub)                                                                    \
  X(BinMul)                                                                    \
  X(BinDiv)                                                                    \
  X(BinRem)                                                                    \
  X(BinShl)                                                                    \
  X(BinShr)                                                                    \
  X(BinAnd)                                                                    \
  X(BinOr)                                                                     \
  X(BinXor)                                                                    \
  X(BinCmpEq)                                                                  \
  X(BinCmpNe)                                                                  \
  X(BinCmpLt)                                                                  \
  X(BinCmpLe)                                                                  \
  X(BinCmpGt)                                                                  \
  X(BinCmpGe)                                                                  \
  X(UnNeg)                                                                     \
  X(UnNot)                                                                     \
  X(UnI2F)                                                                     \
  X(UnF2I)                                                                     \
  X(UnFBits)                                                                   \
  X(UnBitsF)                                                                   \
  X(Alloc)                                                                     \
  X(AllocArray)                                                                \
  X(LoadField)                                                                 \
  X(StoreField)                                                                \
  X(LoadStatic)                                                                \
  X(StoreStatic)                                                               \
  X(LoadElem)                                                                  \
  X(StoreElem)                                                                 \
  X(ArrayLen)                                                                  \
  X(CallDirect)                                                                \
  X(CallVirtual)                                                               \
  X(NativeCall)                                                                \
  X(Phase)                                                                     \
  X(Br)                                                                        \
  X(CondBrEq)                                                                  \
  X(CondBrNe)                                                                  \
  X(CondBrLt)                                                                  \
  X(CondBrLe)                                                                  \
  X(CondBrGt)                                                                  \
  X(CondBrGe)                                                                  \
  X(Return)                                                                    \
  X(ReturnVoid)

enum class DOpc : uint8_t {
#define LUD_X(N) N,
  LUD_DOPC_LIST(LUD_X)
#undef LUD_X
};

/// One pre-decoded instruction. 40 bytes, fixed size, stored contiguously
/// per function, so straight-line execution walks a dense array. Operand
/// meaning is per-opcode:
///  - A/B/C: register slots (A is usually the destination), except
///    StoreField/StoreElem (A = base) and calls (C = argument count).
///  - D: immediate u32 — field slot, global id, slot count, decoded branch
///    target, callee FuncId / MethodNameId, or the ArgPool offset of a
///    native call.
///  - Bits/Ptr: wide immediate — literal payload, ClassId, false-branch
///    target, call ArgPool offset, or the pre-bound NativeDecl.
///  - Orig: the source instruction, kept to feed profiler hooks and traps;
///    with an empty pipeline every use of it folds away.
struct DIns {
  const void *Handler = nullptr;
  uint16_t A = 0;
  uint16_t B = 0;
  uint16_t C = 0;
  uint8_t Op = 0;
  uint32_t D = 0;
  union {
    uint64_t Bits;
    const void *Ptr;
  };
  const Instruction *Orig = nullptr;

  DIns() : Bits(0) {}
};

/// A function's decoded body plus the flattened call-argument registers
/// (DIns is fixed-size, so variable-length argument lists live in a side
/// pool indexed by offset).
struct DecodedFunction {
  const Function *Fn = nullptr;
  std::vector<DIns> Ops;
  std::vector<Reg> ArgPool;
  uint32_t NRegs = 0;
  bool Ready = false;
};

template <typename ProfilerT> class ThreadedEngine {
public:
  ThreadedEngine(const Module &M, Heap &H, ProfilerT &P, RunConfig Cfg = {})
      : M(M), TheHeap(H), Prof(P), Cfg(Cfg) {
    assert(M.isFinalized() && "module must be finalized before execution");
    DFuncs.resize(M.functions().size());
    bindNatives();
  }

  /// Executes the module's entry function to completion (or trap/budget).
  /// Same result contract as Interpreter::run().
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

    Res.Status = loop(Res, Entry->getId());
    Res.SinkHash = NCtx.SinkHash;
    Res.ExecutedInstrs = Executed;
    Res.Calls = Calls;
    Res.PeakFrameDepth = PeakDepth;
    Res.ObjectsAllocated = TheHeap.numObjects() - ObjectsBefore;
    Ctx = nullptr;
    return Res;
  }

private:
  /// Caller state saved across a call; the callee's registers live above
  /// the caller's in the shared register stack.
  struct DFrame {
    const DecodedFunction *DF;
    uint64_t Base;
    uint32_t RetPC;
    Reg RetDst;
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

  /// Both operands are ints (the dominant case in every workload): Kind
  /// Int is 0, so one OR replaces two three-way switches in asInt().
  static bool bothInt(const Value &L, const Value &R) {
    return (uint8_t(L.Kind) | uint8_t(R.Kind)) == 0;
  }

  /// evalValueCmp's integer branch, for operands already known to be ints.
  /// Op is a literal at every call site, so this folds to one compare.
  static bool intCmp(CmpOp Op, int64_t A, int64_t B) {
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
    return false;
  }

  RunStatus trap(RunResult &Res, const Instruction &I, TrapKind K,
                 Reg FaultReg = kNoReg) {
    Res.Trap = K;
    Res.TrapInstr = I.getId();
    Res.TrapReg = FaultReg;
    Prof.onTrap(I, K, FaultReg);
    return RunStatus::Trapped;
  }

  void ensureRegs(uint64_t Needed) {
    if (RegStack.size() < Needed)
      RegStack.resize(std::max<uint64_t>(Needed, RegStack.size() * 2));
  }

  /// The decode memo: returns the function's decoded body, producing it on
  /// first touch. Every call instruction runs the lookup, so it is forced
  /// into the dispatch loop and the decode kept out of line: with the
  /// session's eleven pipeline shapes instantiated in one translation unit
  /// (workloads/Driver.cpp), GCC otherwise left the lookup a call.
  [[gnu::always_inline]] DecodedFunction &decodedFn(FuncId Id) {
    DecodedFunction &D = DFuncs[Id];
    if (__builtin_expect(!D.Ready, 0))
      decodeFunction(D, *M.getFunction(Id));
    return D;
  }

  [[gnu::noinline]] void decodeFunction(DecodedFunction &D,
                                        const Function &Fn) {
    D.Fn = &Fn;
    D.NRegs = Fn.getNumRegs();
    // Pass 1: flat offsets of each block (one DIns per instruction), so
    // branch targets decode to absolute positions in the stream.
    std::vector<uint32_t> BlockStart(Fn.blocks().size(), 0);
    uint32_t N = 0;
    for (size_t B = 0, E = Fn.blocks().size(); B != E; ++B) {
      BlockStart[B] = N;
      N += uint32_t(Fn.blocks()[B]->insts().size());
    }
    D.Ops.reserve(N);
    for (const auto &BB : Fn.blocks())
      for (const auto &IP : BB->insts())
        D.Ops.push_back(decodeInst(D, *IP, BlockStart));
    D.Ready = true;
  }

  uint32_t poolArgs(DecodedFunction &D, const std::vector<Reg> &Args) {
    uint32_t Off = uint32_t(D.ArgPool.size());
    D.ArgPool.insert(D.ArgPool.end(), Args.begin(), Args.end());
    return Off;
  }

  DIns decodeInst(DecodedFunction &D, const Instruction &I,
                  const std::vector<uint32_t> &BlockStart) {
    DIns O;
    O.Orig = &I;
    DOpc Op = DOpc::ReturnVoid; // every switch arm overwrites this
    switch (I.getKind()) {
    case Instruction::Kind::Const: {
      const auto *C = cast<ConstInst>(&I);
      O.A = C->Dst;
      switch (C->Lit) {
      case ConstInst::LitKind::Int:
        Op = DOpc::ConstInt;
        O.Bits = uint64_t(C->IntVal);
        break;
      case ConstInst::LitKind::Float:
        Op = DOpc::ConstFloat;
        std::memcpy(&O.Bits, &C->FloatVal, sizeof(O.Bits));
        break;
      case ConstInst::LitKind::Null:
        Op = DOpc::ConstNull;
        break;
      }
      break;
    }
    case Instruction::Kind::Assign: {
      const auto *A = cast<AssignInst>(&I);
      Op = DOpc::Assign;
      O.A = A->Dst;
      O.B = A->Src;
      break;
    }
    case Instruction::Kind::Bin: {
      const auto *B = cast<BinInst>(&I);
      Op = DOpc(uint8_t(DOpc::BinAdd) + uint8_t(B->Op));
      O.A = B->Dst;
      O.B = B->Lhs;
      O.C = B->Rhs;
      break;
    }
    case Instruction::Kind::Un: {
      const auto *U = cast<UnInst>(&I);
      Op = DOpc(uint8_t(DOpc::UnNeg) + uint8_t(U->Op));
      O.A = U->Dst;
      O.B = U->Src;
      break;
    }
    case Instruction::Kind::Alloc: {
      const auto *A = cast<AllocInst>(&I);
      Op = DOpc::Alloc;
      O.A = A->Dst;
      O.D = M.getClass(A->Class)->NumSlots;
      O.Bits = A->Class;
      break;
    }
    case Instruction::Kind::AllocArray: {
      const auto *A = cast<AllocArrayInst>(&I);
      Op = DOpc::AllocArray;
      O.A = A->Dst;
      O.B = A->Len;
      O.D = uint32_t(A->Elem);
      break;
    }
    case Instruction::Kind::LoadField: {
      const auto *L = cast<LoadFieldInst>(&I);
      Op = DOpc::LoadField;
      O.A = L->Dst;
      O.B = L->Base;
      O.D = L->Slot;
      break;
    }
    case Instruction::Kind::StoreField: {
      const auto *S = cast<StoreFieldInst>(&I);
      Op = DOpc::StoreField;
      O.A = S->Base;
      O.B = S->Src;
      O.D = S->Slot;
      break;
    }
    case Instruction::Kind::LoadStatic: {
      const auto *L = cast<LoadStaticInst>(&I);
      Op = DOpc::LoadStatic;
      O.A = L->Dst;
      O.D = L->Global;
      break;
    }
    case Instruction::Kind::StoreStatic: {
      const auto *S = cast<StoreStaticInst>(&I);
      Op = DOpc::StoreStatic;
      O.A = S->Src;
      O.D = S->Global;
      break;
    }
    case Instruction::Kind::LoadElem: {
      const auto *L = cast<LoadElemInst>(&I);
      Op = DOpc::LoadElem;
      O.A = L->Dst;
      O.B = L->Base;
      O.C = L->Index;
      break;
    }
    case Instruction::Kind::StoreElem: {
      const auto *S = cast<StoreElemInst>(&I);
      Op = DOpc::StoreElem;
      O.A = S->Base;
      O.B = S->Index;
      O.C = S->Src;
      break;
    }
    case Instruction::Kind::ArrayLen: {
      const auto *A = cast<ArrayLenInst>(&I);
      Op = DOpc::ArrayLen;
      O.A = A->Dst;
      O.B = A->Base;
      break;
    }
    case Instruction::Kind::Call: {
      const auto *C = cast<CallInst>(&I);
      O.A = C->Dst;
      O.C = uint16_t(C->Args.size());
      O.Bits = poolArgs(D, C->Args);
      if (C->isVirtual()) {
        Op = DOpc::CallVirtual;
        O.D = C->Method;
      } else {
        Op = DOpc::CallDirect;
        O.D = C->Callee;
      }
      break;
    }
    case Instruction::Kind::NativeCall: {
      const auto *N = cast<NativeCallInst>(&I);
      if (N->Native == PhaseNative) {
        Op = DOpc::Phase;
        O.A = N->Args.empty() ? kNoReg : N->Args[0];
        break;
      }
      Op = DOpc::NativeCall;
      O.A = N->Dst;
      O.C = uint16_t(N->Args.size());
      O.D = poolArgs(D, N->Args);
      O.Ptr = Bound[N->Native]; // Null stays null: UnknownNative at use.
      break;
    }
    case Instruction::Kind::Br: {
      Op = DOpc::Br;
      O.D = BlockStart[cast<BrInst>(&I)->Target];
      break;
    }
    case Instruction::Kind::CondBr: {
      const auto *C = cast<CondBrInst>(&I);
      Op = DOpc(uint8_t(DOpc::CondBrEq) + uint8_t(C->Cmp));
      O.A = C->Lhs;
      O.B = C->Rhs;
      O.D = BlockStart[C->TrueBlock];
      O.Bits = BlockStart[C->FalseBlock];
      break;
    }
    case Instruction::Kind::Return: {
      const auto *R = cast<ReturnInst>(&I);
      if (R->Src == kNoReg) {
        Op = DOpc::ReturnVoid;
      } else {
        Op = DOpc::Return;
        O.A = R->Src;
      }
      break;
    }
    }
    O.Op = uint8_t(Op);
    O.Handler = LabelTable[O.Op];
    return O;
  }

  /// The threaded fetch-execute loop. Counter/budget ordering matches the
  /// interpreter exactly: budget is checked before each instruction, the
  /// instruction is counted before it executes (so a trapping instruction
  /// is counted, and BudgetExceeded stops *before* instruction N+1).
  RunStatus loop(RunResult &Res, FuncId EntryId) {
#define LUD_X(N) &&L_##N,
    static const void *const Labels[] = {LUD_DOPC_LIST(LUD_X)};
#undef LUD_X
    LabelTable = Labels;
#define LUD_OP(name) L_##name:
#define LUD_DISPATCH() goto *PC->Handler

// Advance to the instruction PC points at (callers position PC first).
// `Left` counts budget headroom downwards so the pre-instruction budget
// check and the executed-instruction count are one decrement: Left-- == 0
// is "Executed >= MaxInstructions", and a successful decrement *is* the
// "count before execute" step (instructions executed = Left0 - Left, which
// ExitSync folds back into the accumulating member).
#define LUD_NEXT()                                                             \
  do {                                                                         \
    if (__builtin_expect(Left-- == 0, 0)) {                                    \
      ++Left; /* undo the wrap so ExitSync's arithmetic is exact */            \
      St = RunStatus::BudgetExceeded;                                          \
      goto ExitSync;                                                           \
    }                                                                          \
    LUD_DISPATCH();                                                            \
  } while (0)

// Abandon the run with a trap at the DIns currently bound to `I`.
#define LUD_TRAP(K, FR)                                                        \
  do {                                                                         \
    St = trap(Res, *I.Orig, (K), (FR));                                        \
    goto ExitSync;                                                             \
  } while (0)

// Enter `CALLEE_D` from the call currently bound to `I` (argc in I.C,
// actuals at CArgs, result register I.A). Mind the resize: ensureRegs can
// move the register stack, so both base pointers are re-derived after it.
#define LUD_ENTER_FRAME(CALLEE_D)                                              \
  do {                                                                         \
    DecodedFunction &NewDF = (CALLEE_D);                                       \
    Frames.push_back({DF, CurBase, uint32_t(PC + 1 - Ops), Reg(I.A)});         \
    uint64_t NewBase = CurBase + DF->NRegs;                                    \
    ensureRegs(NewBase + NewDF.NRegs);                                         \
    Value *CallerR = RegStack.data() + CurBase;                                \
    Value *NewR = RegStack.data() + NewBase;                                   \
    for (uint32_t K = 0; K != I.C; ++K)                                        \
      NewR[K] = CallerR[CArgs[K]];                                             \
    std::fill(NewR + I.C, NewR + NewDF.NRegs, Value());                        \
    DF = &NewDF;                                                               \
    CurBase = NewBase;                                                         \
    R = NewR;                                                                  \
    Pool = DF->ArgPool.data();                                                 \
    Ops = DF->Ops.data();                                                      \
    PC = Ops;                                                                  \
    ++Depth;                                                                   \
    if (Depth > PeakL)                                                         \
      PeakL = Depth;                                                           \
  } while (0)

// The arithmetic Bin families, specialized per opcode so the type test and
// the operation are the only work left at run time.
#define LUD_BIN_ARITH(NAME, OPER)                                              \
  LUD_OP(Bin##NAME) {                                                          \
    const DIns &I = *PC;                                                       \
    const Value &L = R[I.B], &Rv = R[I.C];                                     \
    if (__builtin_expect(bothInt(L, Rv), 1))                                   \
      R[I.A] = Value::makeInt(L.I OPER Rv.I);                                  \
    else                                                                       \
      R[I.A] = (L.Kind == ValueKind::Float || Rv.Kind == ValueKind::Float)     \
                   ? Value::makeFloat(L.asFloat() OPER Rv.asFloat())           \
                   : Value::makeInt(L.asInt() OPER Rv.asInt());                \
    Prof.onBin(*cast<BinInst>(I.Orig));                                        \
    ++PC;                                                                      \
    LUD_NEXT();                                                                \
  }

#define LUD_BIN_INT(NAME, EXPR)                                                \
  LUD_OP(Bin##NAME) {                                                          \
    const DIns &I = *PC;                                                       \
    const Value &L = R[I.B], &Rv = R[I.C];                                     \
    int64_t Li, Ri;                                                            \
    if (__builtin_expect(bothInt(L, Rv), 1)) {                                 \
      Li = L.I;                                                                \
      Ri = Rv.I;                                                               \
    } else {                                                                   \
      Li = L.asInt();                                                          \
      Ri = Rv.asInt();                                                         \
    }                                                                          \
    R[I.A] = Value::makeInt(EXPR);                                             \
    Prof.onBin(*cast<BinInst>(I.Orig));                                        \
    ++PC;                                                                      \
    LUD_NEXT();                                                                \
  }

#define LUD_BIN_CMP(NAME)                                                      \
  LUD_OP(BinCmp##NAME) {                                                       \
    const DIns &I = *PC;                                                       \
    const Value &L = R[I.B], &Rv = R[I.C];                                     \
    bool T = __builtin_expect(bothInt(L, Rv), 1)                               \
                 ? intCmp(CmpOp::NAME, L.I, Rv.I)                              \
                 : evalValueCmp(CmpOp::NAME, L, Rv);                           \
    R[I.A] = Value::makeInt(T ? 1 : 0);                                        \
    Prof.onBin(*cast<BinInst>(I.Orig));                                        \
    ++PC;                                                                      \
    LUD_NEXT();                                                                \
  }

#define LUD_COND_BR(NAME)                                                      \
  LUD_OP(CondBr##NAME) {                                                       \
    const DIns &I = *PC;                                                       \
    const Value &L = R[I.A], &Rv = R[I.B];                                     \
    bool Taken = __builtin_expect(bothInt(L, Rv), 1)                           \
                     ? intCmp(CmpOp::NAME, L.I, Rv.I)                          \
                     : evalValueCmp(CmpOp::NAME, L, Rv);                       \
    Prof.onPredicate(*cast<CondBrInst>(I.Orig), Taken);                        \
    PC = Ops + (Taken ? uint64_t(I.D) : I.Bits);                               \
    LUD_NEXT();                                                                \
  }

#define LUD_RETURN_BODY(RET_EXPR)                                              \
  do {                                                                         \
    const DIns &I = *PC;                                                       \
    Value Ret = (RET_EXPR);                                                    \
    Prof.onReturn(*cast<ReturnInst>(I.Orig));                                  \
    --Depth;                                                                   \
    if (Depth == 0) {                                                          \
      Res.ReturnValue = Ret;                                                   \
      St = RunStatus::Finished;                                                \
      goto ExitSync;                                                           \
    }                                                                          \
    DFrame Fr = Frames.back();                                                 \
    Frames.pop_back();                                                         \
    DF = Fr.DF;                                                                \
    CurBase = Fr.Base;                                                         \
    R = RegStack.data() + CurBase;                                             \
    Pool = DF->ArgPool.data();                                                 \
    Ops = DF->Ops.data();                                                      \
    PC = Ops + Fr.RetPC;                                                       \
    if (Fr.RetDst != kNoReg)                                                   \
      R[Fr.RetDst] = Ret;                                                      \
    Prof.onReturnBound(Fr.RetDst);                                             \
    LUD_NEXT();                                                                \
  } while (0)

    // Hot state lives in locals; the members are synced once at exit so
    // repeated run() calls accumulate exactly like the interpreter's.
    RunStatus St = RunStatus::Finished;
    const uint64_t Budget = Cfg.MaxInstructions;
    const uint64_t Left0 = Budget > Executed ? Budget - Executed : 0;
    uint64_t Left = Left0;
    uint64_t CallsL = Calls;
    uint64_t PeakL = PeakDepth;
    size_t Depth = 0;
    Frames.clear();

    const DecodedFunction *DF = &decodedFn(EntryId);
    uint64_t CurBase = 0;
    ensureRegs(DF->NRegs);
    Value *R = RegStack.data();
    std::fill(R, R + DF->NRegs, Value());
    const Reg *Pool = DF->ArgPool.data();
    Value *G = Globals.data();
    const DIns *Ops = DF->Ops.data();
    const DIns *PC = Ops;
    Depth = 1;
    if (Depth > PeakL)
      PeakL = Depth;

    LUD_NEXT();

    LUD_OP(ConstInt) {
      const DIns &I = *PC;
      R[I.A] = Value::makeInt(int64_t(I.Bits));
      Prof.onConst(*cast<ConstInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(ConstFloat) {
      const DIns &I = *PC;
      double F;
      std::memcpy(&F, &I.Bits, sizeof(F));
      R[I.A] = Value::makeFloat(F);
      Prof.onConst(*cast<ConstInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(ConstNull) {
      const DIns &I = *PC;
      R[I.A] = Value::null();
      Prof.onConst(*cast<ConstInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(Assign) {
      const DIns &I = *PC;
      R[I.A] = R[I.B];
      Prof.onAssign(*cast<AssignInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }

    LUD_BIN_ARITH(Add, +)
    LUD_BIN_ARITH(Sub, -)
    LUD_BIN_ARITH(Mul, *)

    LUD_OP(BinDiv) {
      const DIns &I = *PC;
      const Value &L = R[I.B], &Rv = R[I.C];
      if (__builtin_expect(bothInt(L, Rv), 1)) {
        if (Rv.I == 0)
          LUD_TRAP(TrapKind::DivByZero, kNoReg);
        R[I.A] = Value::makeInt(L.I / Rv.I);
      } else if (L.Kind == ValueKind::Float || Rv.Kind == ValueKind::Float) {
        R[I.A] = Value::makeFloat(L.asFloat() / Rv.asFloat());
      } else {
        if (Rv.asInt() == 0)
          LUD_TRAP(TrapKind::DivByZero, kNoReg);
        R[I.A] = Value::makeInt(L.asInt() / Rv.asInt());
      }
      Prof.onBin(*cast<BinInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(BinRem) {
      const DIns &I = *PC;
      const Value &L = R[I.B], &Rv = R[I.C];
      if (__builtin_expect(bothInt(L, Rv), 1)) {
        if (Rv.I == 0)
          LUD_TRAP(TrapKind::DivByZero, kNoReg);
        R[I.A] = Value::makeInt(L.I % Rv.I);
      } else if (L.Kind == ValueKind::Float || Rv.Kind == ValueKind::Float) {
        R[I.A] = Value::makeFloat(std::fmod(L.asFloat(), Rv.asFloat()));
      } else {
        if (Rv.asInt() == 0)
          LUD_TRAP(TrapKind::DivByZero, kNoReg);
        R[I.A] = Value::makeInt(L.asInt() % Rv.asInt());
      }
      Prof.onBin(*cast<BinInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }

    LUD_BIN_INT(Shl, int64_t(uint64_t(Li) << (Ri & 63)))
    LUD_BIN_INT(Shr, Li >> (Ri & 63))
    LUD_BIN_INT(And, Li & Ri)
    LUD_BIN_INT(Or, Li | Ri)
    LUD_BIN_INT(Xor, Li ^ Ri)

    LUD_BIN_CMP(Eq)
    LUD_BIN_CMP(Ne)
    LUD_BIN_CMP(Lt)
    LUD_BIN_CMP(Le)
    LUD_BIN_CMP(Gt)
    LUD_BIN_CMP(Ge)

    LUD_OP(UnNeg) {
      const DIns &I = *PC;
      const Value &S = R[I.B];
      R[I.A] = S.Kind == ValueKind::Float ? Value::makeFloat(-S.F)
                                          : Value::makeInt(-S.asInt());
      Prof.onUn(*cast<UnInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(UnNot) {
      const DIns &I = *PC;
      R[I.A] = Value::makeInt(~R[I.B].asInt());
      Prof.onUn(*cast<UnInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(UnI2F) {
      const DIns &I = *PC;
      R[I.A] = Value::makeFloat(R[I.B].asFloat());
      Prof.onUn(*cast<UnInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(UnF2I) {
      const DIns &I = *PC;
      R[I.A] = Value::makeInt(R[I.B].asInt());
      Prof.onUn(*cast<UnInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(UnFBits) {
      const DIns &I = *PC;
      double F = R[I.B].asFloat();
      int64_t Bits;
      std::memcpy(&Bits, &F, sizeof(Bits));
      R[I.A] = Value::makeInt(Bits);
      Prof.onUn(*cast<UnInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(UnBitsF) {
      const DIns &I = *PC;
      int64_t Bits = R[I.B].asInt();
      double F;
      std::memcpy(&F, &Bits, sizeof(F));
      R[I.A] = Value::makeFloat(F);
      Prof.onUn(*cast<UnInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }

    LUD_OP(Alloc) {
      const DIns &I = *PC;
      ObjId O = TheHeap.allocObject(ClassId(I.Bits), I.D);
      R[I.A] = Value::makeRef(O);
      Prof.onAlloc(*cast<AllocInst>(I.Orig), O);
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(AllocArray) {
      const DIns &I = *PC;
      int64_t Len = R[I.B].asInt();
      if (Len < 0 || Len > int64_t(UINT32_MAX))
        LUD_TRAP(TrapKind::OutOfBounds, Reg(I.B));
      ObjId O = TheHeap.allocArray(TypeKind(I.D), uint32_t(Len));
      R[I.A] = Value::makeRef(O);
      Prof.onAllocArray(*cast<AllocArrayInst>(I.Orig), O);
      ++PC;
      LUD_NEXT();
    }

    LUD_OP(LoadField) {
      const DIns &I = *PC;
      const Value &Base = R[I.B];
      if (Base.isNullRef() || !Base.isRef())
        LUD_TRAP(TrapKind::NullDeref, Reg(I.B));
      HeapObject &O = TheHeap.obj(Base.R);
      assert(I.D < O.Slots.size() && "field slot out of range");
      R[I.A] = O.Slots[I.D];
      Prof.onLoadField(*cast<LoadFieldInst>(I.Orig), Base.R, R[I.A]);
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(StoreField) {
      const DIns &I = *PC;
      const Value &Base = R[I.A];
      if (Base.isNullRef() || !Base.isRef())
        LUD_TRAP(TrapKind::NullDeref, Reg(I.A));
      HeapObject &O = TheHeap.obj(Base.R);
      assert(I.D < O.Slots.size() && "field slot out of range");
      O.Slots[I.D] = R[I.B];
      Prof.onStoreField(*cast<StoreFieldInst>(I.Orig), Base.R, R[I.B]);
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(LoadStatic) {
      const DIns &I = *PC;
      R[I.A] = G[I.D];
      Prof.onLoadStatic(*cast<LoadStaticInst>(I.Orig), R[I.A]);
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(StoreStatic) {
      const DIns &I = *PC;
      G[I.D] = R[I.A];
      Prof.onStoreStatic(*cast<StoreStaticInst>(I.Orig), R[I.A]);
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(LoadElem) {
      const DIns &I = *PC;
      const Value &Base = R[I.B];
      if (Base.isNullRef() || !Base.isRef())
        LUD_TRAP(TrapKind::NullDeref, Reg(I.B));
      HeapObject &O = TheHeap.obj(Base.R);
      int64_t Idx = R[I.C].asInt();
      if (Idx < 0 || uint64_t(Idx) >= O.Slots.size())
        LUD_TRAP(TrapKind::OutOfBounds, Reg(I.C));
      R[I.A] = O.Slots[Idx];
      Prof.onLoadElem(*cast<LoadElemInst>(I.Orig), Base.R, uint32_t(Idx),
                      R[I.A]);
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(StoreElem) {
      const DIns &I = *PC;
      const Value &Base = R[I.A];
      if (Base.isNullRef() || !Base.isRef())
        LUD_TRAP(TrapKind::NullDeref, Reg(I.A));
      HeapObject &O = TheHeap.obj(Base.R);
      int64_t Idx = R[I.B].asInt();
      if (Idx < 0 || uint64_t(Idx) >= O.Slots.size())
        LUD_TRAP(TrapKind::OutOfBounds, Reg(I.B));
      O.Slots[Idx] = R[I.C];
      Prof.onStoreElem(*cast<StoreElemInst>(I.Orig), Base.R, uint32_t(Idx),
                       R[I.C]);
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(ArrayLen) {
      const DIns &I = *PC;
      const Value &Base = R[I.B];
      if (Base.isNullRef() || !Base.isRef())
        LUD_TRAP(TrapKind::NullDeref, Reg(I.B));
      R[I.A] = Value::makeInt(int64_t(TheHeap.obj(Base.R).Slots.size()));
      Prof.onArrayLen(*cast<ArrayLenInst>(I.Orig), Base.R);
      ++PC;
      LUD_NEXT();
    }

    LUD_OP(CallDirect) {
      const DIns &I = *PC;
      DecodedFunction &CalleeD = decodedFn(FuncId(I.D));
      const Function *Callee = CalleeD.Fn;
      const Reg *CArgs = Pool + I.Bits;
      ObjId Receiver = kNullObj;
      if (Callee->isMethod() && I.C != 0) {
        const Value &Recv = R[CArgs[0]];
        if (Recv.isRef() && !Recv.isNullRef())
          Receiver = Recv.R;
      }
      if (Depth >= Cfg.MaxFrames)
        LUD_TRAP(TrapKind::StackOverflow, kNoReg);
      Prof.onCallEnter(*cast<CallInst>(I.Orig), *Callee, Receiver);
      ++CallsL;
      LUD_ENTER_FRAME(CalleeD);
      LUD_NEXT();
    }
    LUD_OP(CallVirtual) {
      const DIns &I = *PC;
      const Reg *CArgs = Pool + I.Bits;
      const Value &Recv = R[CArgs[0]];
      if (Recv.isNullRef() || !Recv.isRef())
        LUD_TRAP(TrapKind::NullDeref, CArgs[0]);
      ObjId Receiver = Recv.R;
      const HeapObject &RO = TheHeap.obj(Receiver);
      if (RO.IsArray)
        LUD_TRAP(TrapKind::BadVirtualCall, CArgs[0]);
      FuncId Target = M.lookupMethod(RO.Class, MethodNameId(I.D));
      if (Target == kNoFunc)
        LUD_TRAP(TrapKind::BadVirtualCall, CArgs[0]);
      DecodedFunction &CalleeD = decodedFn(Target);
      if (Depth >= Cfg.MaxFrames)
        LUD_TRAP(TrapKind::StackOverflow, kNoReg);
      Prof.onCallEnter(*cast<CallInst>(I.Orig), *CalleeD.Fn, Receiver);
      ++CallsL;
      LUD_ENTER_FRAME(CalleeD);
      LUD_NEXT();
    }

    LUD_OP(NativeCall) {
      const DIns &I = *PC;
      const auto *ND = static_cast<const NativeDecl *>(I.Ptr);
      if (!ND)
        LUD_TRAP(TrapKind::UnknownNative, kNoReg);
      const Reg *NArgs = Pool + I.D;
      ArgScratch.clear();
      for (uint32_t K = 0; K != I.C; ++K)
        ArgScratch.push_back(R[NArgs[K]]);
      Value RV = ND->Fn(*Ctx, ArgScratch.data(), ArgScratch.size());
      if (I.A != kNoReg)
        R[I.A] = ND->HasResult ? RV : Value();
      Prof.onNativeCall(*cast<NativeCallInst>(I.Orig));
      ++PC;
      LUD_NEXT();
    }
    LUD_OP(Phase) {
      const DIns &I = *PC;
      int64_t Phase = I.A == kNoReg ? 0 : R[I.A].asInt();
      Prof.onPhase(Phase);
      ++PC;
      LUD_NEXT();
    }

    LUD_OP(Br) {
      PC = Ops + PC->D;
      LUD_NEXT();
    }

    LUD_COND_BR(Eq)
    LUD_COND_BR(Ne)
    LUD_COND_BR(Lt)
    LUD_COND_BR(Le)
    LUD_COND_BR(Gt)
    LUD_COND_BR(Ge)

    LUD_OP(Return) { LUD_RETURN_BODY(R[PC->A]); }
    LUD_OP(ReturnVoid) { LUD_RETURN_BODY(Value()); }

  ExitSync:
    Executed += Left0 - Left;
    Calls = CallsL;
    PeakDepth = PeakL;
    return St;

#undef LUD_OP
#undef LUD_DISPATCH
#undef LUD_NEXT
#undef LUD_TRAP
#undef LUD_ENTER_FRAME
#undef LUD_BIN_ARITH
#undef LUD_BIN_INT
#undef LUD_BIN_CMP
#undef LUD_COND_BR
#undef LUD_RETURN_BODY
  }

  const Module &M;
  Heap &TheHeap;
  ProfilerT &Prof;
  RunConfig Cfg;
  std::vector<DecodedFunction> DFuncs;
  std::vector<Value> RegStack;
  std::vector<DFrame> Frames;
  std::vector<Value> Globals;
  std::vector<const NativeDecl *> Bound;
  std::vector<Value> ArgScratch;
  NativeContext *Ctx = nullptr;
  NativeId PhaseNative = kNoMethodName;
  /// Handler table of the executing loop; set before the entry function is
  /// decoded (decodeInst reads it to pre-bind DIns::Handler).
  const void *const *LabelTable = nullptr;
  uint64_t Executed = 0;
  uint64_t Calls = 0;
  uint64_t PeakDepth = 0;
};

/// Runs \p M on the engine selected by \p E — the one branch point behind
/// which both backends hide. Every driver-level caller funnels through
/// this, so profiler pipelines never care which engine executes them.
template <typename ProfilerT>
RunResult runWithEngine(EngineKind E, const Module &M, Heap &H, ProfilerT &P,
                        const RunConfig &Cfg) {
  if (E == EngineKind::Threaded) {
    ThreadedEngine<ProfilerT> Eng(M, H, P, Cfg);
    return Eng.run();
  }
  Interpreter<ProfilerT> Interp(M, H, P, Cfg);
  return Interp.run();
}

} // namespace lud

#endif // LUD_RUNTIME_THREADEDENGINE_H
