//===- ir/Instruction.h - Three-address-code instructions ------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The instruction set of the three-address-code representation the paper's
/// analyses operate on (Section 2: "each statement corresponds to a bytecode
/// instruction"). Every instruction has unit cost. The hierarchy uses
/// LLVM-style isa/cast/dyn_cast via a kind discriminator.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_INSTRUCTION_H
#define LUD_IR_INSTRUCTION_H

#include "ir/Ids.h"
#include "ir/Type.h"
#include "support/Casting.h"

#include <cassert>
#include <vector>

namespace lud {

class BasicBlock;

/// Binary arithmetic / comparison opcodes. Comparisons yield int 0/1.
enum class BinOp : uint8_t {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Shl,
  Shr,
  And,
  Or,
  Xor,
  CmpEq,
  CmpNe,
  CmpLt,
  CmpLe,
  CmpGt,
  CmpGe,
};

/// Unary opcodes. FBits/BitsF mirror Float.floatToIntBits /
/// Float.intBitsToFloat from the paper's sunflow case study.
enum class UnOp : uint8_t {
  Neg,
  Not,
  I2F,
  F2I,
  FBits,
  BitsF,
};

/// Comparison used by conditional branches (the paper's predicate
/// instructions, rule PREDICATE of Figure 4).
enum class CmpOp : uint8_t {
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
};

/// Returns a printable mnemonic ("add", "cmpeq", ...).
const char *binOpName(BinOp Op);
/// Returns a printable mnemonic ("neg", "fbits", ...).
const char *unOpName(UnOp Op);
/// Returns the comparison operator spelling ("==", "<", ...).
const char *cmpOpName(CmpOp Op);

/// Base class of all instructions. Instructions are owned by their basic
/// block; Module::finalize() assigns the dense global Id used to key
/// profiler-side tables.
class Instruction {
public:
  enum class Kind : uint8_t {
    Const,
    Assign,
    Bin,
    Un,
    Alloc,
    AllocArray,
    LoadField,
    StoreField,
    LoadStatic,
    StoreStatic,
    LoadElem,
    StoreElem,
    ArrayLen,
    Call,
    NativeCall,
    Br,
    CondBr,
    Return,
  };

  virtual ~Instruction();

  Kind getKind() const { return TheKind; }
  InstrId getId() const { return Id; }
  BasicBlock *getParent() const { return Parent; }

  /// True for instructions that read a heap or static location. Thin-slice
  /// single-hop traversals (Definitions 5/6) refuse to cross these.
  bool readsHeap() const {
    return TheKind == Kind::LoadField || TheKind == Kind::LoadStatic ||
           TheKind == Kind::LoadElem || TheKind == Kind::ArrayLen;
  }
  /// True for instructions that write a heap or static location (the
  /// "boxed" nodes of Figure 3).
  bool writesHeap() const {
    return TheKind == Kind::StoreField || TheKind == Kind::StoreStatic ||
           TheKind == Kind::StoreElem;
  }
  /// True for object / array allocations (the "underlined" nodes).
  bool isAlloc() const {
    return TheKind == Kind::Alloc || TheKind == Kind::AllocArray;
  }
  /// True for the block terminators (Br, CondBr, Return).
  bool isTerminator() const {
    return TheKind == Kind::Br || TheKind == Kind::CondBr ||
           TheKind == Kind::Return;
  }

  static bool classof(const Instruction *) { return true; }

private:
  friend class BasicBlock;
  friend class Module;

  Kind TheKind;
  InstrId Id = kNoInstr;
  BasicBlock *Parent = nullptr;

protected:
  explicit Instruction(Kind K) : TheKind(K) {}
  /// Copies the kind alone: a copy sits in no block, and the finalize() of
  /// the module it is appended to gives it an id (ModuleRewriter makes
  /// every copy by copy-constructing the concrete class).
  Instruction(const Instruction &Other) : TheKind(Other.TheKind) {}
  Instruction &operator=(const Instruction &) = delete;
};

/// Dst = <literal>. Literals are ints, floats, or null.
class ConstInst : public Instruction {
public:
  enum class LitKind : uint8_t { Int, Float, Null };

  static ConstInst *makeInt(Reg Dst, int64_t V) {
    auto *I = new ConstInst(Dst, LitKind::Int);
    I->IntVal = V;
    return I;
  }
  static ConstInst *makeFloat(Reg Dst, double V) {
    auto *I = new ConstInst(Dst, LitKind::Float);
    I->FloatVal = V;
    return I;
  }
  static ConstInst *makeNull(Reg Dst) {
    return new ConstInst(Dst, LitKind::Null);
  }

  Reg Dst;
  LitKind Lit;
  int64_t IntVal = 0;
  double FloatVal = 0;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::Const;
  }

private:
  ConstInst(Reg Dst, LitKind Lit)
      : Instruction(Kind::Const), Dst(Dst), Lit(Lit) {}
};

/// Dst = Src (register copy; rule ASSIGN).
class AssignInst : public Instruction {
public:
  AssignInst(Reg Dst, Reg Src) : Instruction(Kind::Assign), Dst(Dst),
                                 Src(Src) {}

  Reg Dst;
  Reg Src;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::Assign;
  }
};

/// Dst = Lhs op Rhs (rule COMPUTATION).
class BinInst : public Instruction {
public:
  BinInst(BinOp Op, Reg Dst, Reg Lhs, Reg Rhs)
      : Instruction(Kind::Bin), Op(Op), Dst(Dst), Lhs(Lhs), Rhs(Rhs) {}

  BinOp Op;
  Reg Dst;
  Reg Lhs;
  Reg Rhs;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::Bin;
  }
};

/// Dst = op Src.
class UnInst : public Instruction {
public:
  UnInst(UnOp Op, Reg Dst, Reg Src)
      : Instruction(Kind::Un), Op(Op), Dst(Dst), Src(Src) {}

  UnOp Op;
  Reg Dst;
  Reg Src;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::Un;
  }
};

/// Dst = new Class (rule ALLOC). Module::finalize() assigns the allocation
/// site id used for object tags and context chains.
class AllocInst : public Instruction {
public:
  AllocInst(Reg Dst, ClassId Class)
      : Instruction(Kind::Alloc), Dst(Dst), Class(Class) {}

  Reg Dst;
  ClassId Class;
  AllocSiteId Site = kNoAllocSite;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::Alloc;
  }
};

/// Dst = new Elem[Len].
class AllocArrayInst : public Instruction {
public:
  AllocArrayInst(Reg Dst, TypeKind Elem, Reg Len)
      : Instruction(Kind::AllocArray), Dst(Dst), Elem(Elem), Len(Len) {}

  Reg Dst;
  TypeKind Elem;
  Reg Len;
  AllocSiteId Site = kNoAllocSite;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::AllocArray;
  }
};

/// Dst = Base.field (rule LOAD FIELD). Thin slicing: the base pointer value
/// is *not* a use; the dependence comes from the shadow of the heap slot.
class LoadFieldInst : public Instruction {
public:
  LoadFieldInst(Reg Dst, Reg Base, ClassId Class, FieldSlot Slot)
      : Instruction(Kind::LoadField), Dst(Dst), Base(Base), Class(Class),
        Slot(Slot) {}

  Reg Dst;
  Reg Base;
  /// Class whose layout Slot was resolved against (for printing).
  ClassId Class;
  FieldSlot Slot;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::LoadField;
  }
};

/// Base.field = Src (rule STORE FIELD).
class StoreFieldInst : public Instruction {
public:
  StoreFieldInst(Reg Base, ClassId Class, FieldSlot Slot, Reg Src)
      : Instruction(Kind::StoreField), Base(Base), Class(Class), Slot(Slot),
        Src(Src) {}

  Reg Base;
  ClassId Class;
  FieldSlot Slot;
  Reg Src;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::StoreField;
  }
};

/// Dst = @global (rule LOAD STATIC).
class LoadStaticInst : public Instruction {
public:
  LoadStaticInst(Reg Dst, GlobalId Global)
      : Instruction(Kind::LoadStatic), Dst(Dst), Global(Global) {}

  Reg Dst;
  GlobalId Global;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::LoadStatic;
  }
};

/// @global = Src (rule STORE STATIC).
class StoreStaticInst : public Instruction {
public:
  StoreStaticInst(GlobalId Global, Reg Src)
      : Instruction(Kind::StoreStatic), Global(Global), Src(Src) {}

  GlobalId Global;
  Reg Src;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::StoreStatic;
  }
};

/// Dst = Base[Index]. The index value *is* a use even under thin slicing
/// (Section 2.1: "for an array element access, the index used to locate the
/// element is still considered to be used").
class LoadElemInst : public Instruction {
public:
  LoadElemInst(Reg Dst, Reg Base, Reg Index)
      : Instruction(Kind::LoadElem), Dst(Dst), Base(Base), Index(Index) {}

  Reg Dst;
  Reg Base;
  Reg Index;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::LoadElem;
  }
};

/// Base[Index] = Src.
class StoreElemInst : public Instruction {
public:
  StoreElemInst(Reg Base, Reg Index, Reg Src)
      : Instruction(Kind::StoreElem), Base(Base), Index(Index), Src(Src) {}

  Reg Base;
  Reg Index;
  Reg Src;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::StoreElem;
  }
};

/// Dst = len(Base). Treated as a heap read of the array's length slot.
class ArrayLenInst : public Instruction {
public:
  ArrayLenInst(Reg Dst, Reg Base)
      : Instruction(Kind::ArrayLen), Dst(Dst), Base(Base) {}

  Reg Dst;
  Reg Base;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::ArrayLen;
  }
};

/// Dst = call f(args) / Dst = vcall m(recv, args). Virtual calls dispatch on
/// the dynamic class of the receiver (Args[0]) through the vtable; they are
/// what extend the object-sensitive context chain (rule METHOD ENTRY).
class CallInst : public Instruction {
public:
  /// Direct (statically bound) call.
  static CallInst *makeDirect(Reg Dst, FuncId Callee, std::vector<Reg> Args) {
    auto *I = new CallInst(Dst, std::move(Args));
    I->Callee = Callee;
    return I;
  }
  /// Virtual call; Args[0] is the receiver.
  static CallInst *makeVirtual(Reg Dst, MethodNameId Method,
                               std::vector<Reg> Args) {
    assert(!Args.empty() && "virtual call needs a receiver");
    auto *I = new CallInst(Dst, std::move(Args));
    I->Method = Method;
    return I;
  }

  bool isVirtual() const { return Method != kNoMethodName; }

  Reg Dst; // kNoReg when the result is discarded.
  std::vector<Reg> Args;
  FuncId Callee = kNoFunc;
  MethodNameId Method = kNoMethodName;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::Call;
  }

private:
  CallInst(Reg Dst, std::vector<Reg> Args)
      : Instruction(Kind::Call), Dst(Dst), Args(std::move(Args)) {}
};

/// Dst = ncall native(args). Native calls are the paper's "native nodes":
/// context-free consumers representing data leaving the managed world.
class NativeCallInst : public Instruction {
public:
  NativeCallInst(Reg Dst, NativeId Native, std::vector<Reg> Args)
      : Instruction(Kind::NativeCall), Dst(Dst), Native(Native),
        Args(std::move(Args)) {}

  Reg Dst; // kNoReg for void natives.
  NativeId Native;
  std::vector<Reg> Args;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::NativeCall;
  }
};

/// Unconditional branch to a block of the same function.
class BrInst : public Instruction {
public:
  explicit BrInst(uint32_t Target) : Instruction(Kind::Br), Target(Target) {}

  uint32_t Target;

  static bool classof(const Instruction *I) { return I->getKind() == Kind::Br; }
};

/// if Lhs cmp Rhs goto TrueBlock else FalseBlock. This is the paper's
/// predicate instruction: a context-free consumer node (rule PREDICATE).
class CondBrInst : public Instruction {
public:
  CondBrInst(CmpOp Cmp, Reg Lhs, Reg Rhs, uint32_t TrueBlock,
             uint32_t FalseBlock)
      : Instruction(Kind::CondBr), Cmp(Cmp), Lhs(Lhs), Rhs(Rhs),
        TrueBlock(TrueBlock), FalseBlock(FalseBlock) {}

  CmpOp Cmp;
  Reg Lhs;
  Reg Rhs;
  uint32_t TrueBlock;
  uint32_t FalseBlock;

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::CondBr;
  }
};

/// ret / ret Src. Produces a graph node so unused return values become
/// ultimately-dead sinks (Table 1(c)) and method-level costs can anchor on
/// return values (Section 3.2).
class ReturnInst : public Instruction {
public:
  explicit ReturnInst(Reg Src = kNoReg) : Instruction(Kind::Return),
                                          Src(Src) {}

  Reg Src; // kNoReg for void returns.

  static bool classof(const Instruction *I) {
    return I->getKind() == Kind::Return;
  }
};

} // namespace lud

#endif // LUD_IR_INSTRUCTION_H
