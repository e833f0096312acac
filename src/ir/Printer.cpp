//===- ir/Printer.cpp - Textual IR output ----------------------------------===//

#include "ir/Printer.h"

#include "ir/Module.h"
#include "support/ErrorHandling.h"
#include "support/OutStream.h"

#include <charconv>
#include <cstdio>
#include <cstring>

using namespace lud;

namespace {

/// The pieces of an instruction that print as more than one token.
struct RegName {
  Reg R;
};
struct FloatLit {
  double D;
};
struct FieldRef {
  const Module &M;
  Reg Base;
  ClassId Class;
  FieldSlot Slot;
};
struct ArgList {
  const std::vector<Reg> &Args;
};

/// Collects the printer's small pieces and hands them to the stream a few
/// kilobytes at a time, so a module costs a handful of virtual writes
/// instead of a dozen per instruction.
class Batch {
public:
  explicit Batch(OutStream &OS) : OS(OS) {}
  Batch(const Batch &) = delete;
  Batch &operator=(const Batch &) = delete;
  ~Batch() { flush(); }

  Batch &operator<<(std::string_view S) {
    if (S.size() > sizeof(Buf) - Len) {
      flush();
      if (S.size() > sizeof(Buf)) {
        OS << S;
        return *this;
      }
    }
    std::memcpy(Buf + Len, S.data(), S.size());
    Len += S.size();
    return *this;
  }
  Batch &operator<<(const char *S) { return *this << std::string_view(S); }
  Batch &operator<<(char C) { return *this << std::string_view(&C, 1); }
  Batch &operator<<(int64_t N) { return number(N); }
  Batch &operator<<(uint32_t N) { return number(N); }
  Batch &operator<<(RegName R) { return *this << 'r' << uint32_t(R.R); }
  Batch &operator<<(FloatLit F) {
    char Lit[64];
    std::string_view S(Lit, std::snprintf(Lit, sizeof(Lit), "%.17g", F.D));
    *this << S;
    // Make the literal recognizably a float for the parser.
    return S.find_first_of(".eEnN") == std::string_view::npos ? *this << ".0"
                                                             : *this;
  }
  Batch &operator<<(const FieldRef &F) {
    return *this << RegName{F.Base} << '.' << F.M.getClass(F.Class)->getName()
                 << "::" << F.M.fieldName(F.Class, F.Slot);
  }
  Batch &operator<<(ArgList L) {
    *this << '(';
    for (size_t I = 0; I != L.Args.size(); ++I)
      *this << (I ? ", " : "") << RegName{L.Args[I]};
    return *this << ')';
  }

private:
  template <typename T> Batch &number(T N) {
    if (sizeof(Buf) - Len < 24)
      flush();
    Len = std::to_chars(Buf + Len, Buf + sizeof(Buf), N).ptr - Buf;
    return *this;
  }
  void flush() {
    OS << std::string_view(Buf, Len);
    Len = 0;
  }

  OutStream &OS;
  size_t Len = 0;
  char Buf[8192];
};

std::string_view typeName(const Module &M, Type Ty) {
  if (Ty.Kind == TypeKind::Ref && Ty.Class != kNoClass)
    return M.getClass(Ty.Class)->getName();
  return typeKindName(Ty.Kind);
}

void printInst(const Module &M, const Instruction &I, Batch &OS) {
  using K = Instruction::Kind;
  switch (I.getKind()) {
  case K::Const: {
    const auto *C = cast<ConstInst>(&I);
    OS << RegName{C->Dst} << " = ";
    switch (C->Lit) {
    case ConstInst::LitKind::Int:
      OS << "iconst " << C->IntVal;
      return;
    case ConstInst::LitKind::Float:
      OS << "fconst " << FloatLit{C->FloatVal};
      return;
    case ConstInst::LitKind::Null:
      OS << "null";
      return;
    }
    lud_unreachable("unknown literal kind");
  }
  case K::Assign: {
    const auto *A = cast<AssignInst>(&I);
    OS << RegName{A->Dst} << " = " << RegName{A->Src};
    return;
  }
  case K::Bin: {
    const auto *B = cast<BinInst>(&I);
    OS << RegName{B->Dst} << " = " << binOpName(B->Op) << ' '
       << RegName{B->Lhs} << ", " << RegName{B->Rhs};
    return;
  }
  case K::Un: {
    const auto *U = cast<UnInst>(&I);
    OS << RegName{U->Dst} << " = " << unOpName(U->Op) << ' '
       << RegName{U->Src};
    return;
  }
  case K::Alloc: {
    const auto *A = cast<AllocInst>(&I);
    OS << RegName{A->Dst} << " = new " << M.getClass(A->Class)->getName();
    return;
  }
  case K::AllocArray: {
    const auto *A = cast<AllocArrayInst>(&I);
    OS << RegName{A->Dst} << " = newarray " << typeKindName(A->Elem) << ", "
       << RegName{A->Len};
    return;
  }
  case K::LoadField: {
    const auto *L = cast<LoadFieldInst>(&I);
    OS << RegName{L->Dst} << " = " << FieldRef{M, L->Base, L->Class, L->Slot};
    return;
  }
  case K::StoreField: {
    const auto *S = cast<StoreFieldInst>(&I);
    OS << FieldRef{M, S->Base, S->Class, S->Slot} << " = " << RegName{S->Src};
    return;
  }
  case K::LoadStatic: {
    const auto *L = cast<LoadStaticInst>(&I);
    OS << RegName{L->Dst} << " = @" << M.globals()[L->Global].Name;
    return;
  }
  case K::StoreStatic: {
    const auto *S = cast<StoreStaticInst>(&I);
    OS << '@' << M.globals()[S->Global].Name << " = " << RegName{S->Src};
    return;
  }
  case K::LoadElem: {
    const auto *L = cast<LoadElemInst>(&I);
    OS << RegName{L->Dst} << " = " << RegName{L->Base} << '['
       << RegName{L->Index} << ']';
    return;
  }
  case K::StoreElem: {
    const auto *S = cast<StoreElemInst>(&I);
    OS << RegName{S->Base} << '[' << RegName{S->Index} << "] = "
       << RegName{S->Src};
    return;
  }
  case K::ArrayLen: {
    const auto *A = cast<ArrayLenInst>(&I);
    OS << RegName{A->Dst} << " = len " << RegName{A->Base};
    return;
  }
  case K::Call: {
    const auto *C = cast<CallInst>(&I);
    if (C->Dst != kNoReg)
      OS << RegName{C->Dst} << " = ";
    if (C->isVirtual())
      OS << "vcall " << M.methodNames()[C->Method];
    else
      OS << "call " << M.getFunction(C->Callee)->getName();
    OS << ArgList{C->Args};
    return;
  }
  case K::NativeCall: {
    const auto *N = cast<NativeCallInst>(&I);
    if (N->Dst != kNoReg)
      OS << RegName{N->Dst} << " = ";
    OS << "ncall " << M.nativeNames()[N->Native] << ArgList{N->Args};
    return;
  }
  case K::Br:
    OS << "goto bb" << cast<BrInst>(&I)->Target;
    return;
  case K::CondBr: {
    const auto *C = cast<CondBrInst>(&I);
    OS << "if " << RegName{C->Lhs} << ' ' << cmpOpName(C->Cmp) << ' '
       << RegName{C->Rhs} << " goto bb" << C->TrueBlock << " else bb"
       << C->FalseBlock;
    return;
  }
  case K::Return: {
    const auto *R = cast<ReturnInst>(&I);
    OS << "ret";
    if (R->Src != kNoReg)
      OS << ' ' << RegName{R->Src};
    return;
  }
  }
  lud_unreachable("unknown instruction kind");
}

} // namespace

void lud::printInst(const Module &M, const Instruction &I, OutStream &OS) {
  Batch B(OS);
  printInst(M, I, B);
}

std::string lud::instToString(const Module &M, const Instruction &I) {
  StringOutStream OS;
  printInst(M, I, OS);
  return OS.str();
}

void lud::printModule(const Module &M, OutStream &Out) {
  Batch OS(Out);
  for (const auto &C : M.classes()) {
    OS << "class " << C->getName();
    if (C->getSuper() != kNoClass)
      OS << " extends " << M.getClass(C->getSuper())->getName();
    OS << " {\n";
    for (const auto &F : C->ownFields())
      OS << "  " << F.Name << ": " << typeName(M, F.Ty) << ";\n";
    OS << "}\n\n";
  }

  for (const auto &G : M.globals())
    OS << "global " << G.Name << ": " << typeName(M, G.Ty) << "\n";
  if (!M.globals().empty())
    OS << "\n";

  for (const auto &F : M.functions()) {
    OS << (F->isMethod() ? "method " : "func ") << F->getName() << "(";
    for (unsigned I = 0; I != F->getNumParams(); ++I)
      OS << (I ? ", " : "") << RegName{Reg(I)};
    OS << ") regs " << uint32_t(F->getNumRegs()) << " {\n";
    for (const auto &BB : F->blocks()) {
      OS << "bb" << BB->getId() << ":\n";
      for (const auto &I : BB->insts()) {
        OS << "  ";
        printInst(M, *I, OS);
        OS << '\n';
      }
    }
    OS << "}\n\n";
  }
}
