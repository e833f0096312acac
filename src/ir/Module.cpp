//===- ir/Module.cpp - Top-level program container ------------------------===//

#include "ir/Module.h"

#include "support/ErrorHandling.h"

using namespace lud;

Instruction::~Instruction() = default;

const char *lud::typeKindName(TypeKind K) {
  switch (K) {
  case TypeKind::Int:
    return "int";
  case TypeKind::Float:
    return "float";
  case TypeKind::Ref:
    return "ref";
  case TypeKind::IntArray:
    return "int[]";
  case TypeKind::FloatArray:
    return "float[]";
  case TypeKind::RefArray:
    return "ref[]";
  }
  lud_unreachable("unknown TypeKind");
}

const char *lud::binOpName(BinOp Op) {
  switch (Op) {
  case BinOp::Add:
    return "add";
  case BinOp::Sub:
    return "sub";
  case BinOp::Mul:
    return "mul";
  case BinOp::Div:
    return "div";
  case BinOp::Rem:
    return "rem";
  case BinOp::Shl:
    return "shl";
  case BinOp::Shr:
    return "shr";
  case BinOp::And:
    return "and";
  case BinOp::Or:
    return "or";
  case BinOp::Xor:
    return "xor";
  case BinOp::CmpEq:
    return "cmpeq";
  case BinOp::CmpNe:
    return "cmpne";
  case BinOp::CmpLt:
    return "cmplt";
  case BinOp::CmpLe:
    return "cmple";
  case BinOp::CmpGt:
    return "cmpgt";
  case BinOp::CmpGe:
    return "cmpge";
  }
  lud_unreachable("unknown BinOp");
}

const char *lud::unOpName(UnOp Op) {
  switch (Op) {
  case UnOp::Neg:
    return "neg";
  case UnOp::Not:
    return "not";
  case UnOp::I2F:
    return "i2f";
  case UnOp::F2I:
    return "f2i";
  case UnOp::FBits:
    return "fbits";
  case UnOp::BitsF:
    return "bitsf";
  }
  lud_unreachable("unknown UnOp");
}

const char *lud::cmpOpName(CmpOp Op) {
  switch (Op) {
  case CmpOp::Eq:
    return "==";
  case CmpOp::Ne:
    return "!=";
  case CmpOp::Lt:
    return "<";
  case CmpOp::Le:
    return "<=";
  case CmpOp::Gt:
    return ">";
  case CmpOp::Ge:
    return ">=";
  }
  lud_unreachable("unknown CmpOp");
}

ClassDecl *Module::addClass(std::string Name, ClassId Super) {
  assert(!Finalized && "cannot add classes after finalize()");
  assert(ClassByName.find(Name) == ClassByName.end() && "duplicate class");
  assert((Super == kNoClass || Super < Classes.size()) &&
         "superclass must be declared first");
  ClassId Id = Classes.size();
  Classes.emplace_back(std::make_unique<ClassDecl>(Id, Name, Super));
  ClassByName.emplace(std::move(Name), Id);
  return Classes.back().get();
}

Function *Module::addFunction(std::string Name, unsigned NumParams,
                              unsigned NumRegs, ClassId Owner) {
  assert(!Finalized && "cannot add functions after finalize()");
  assert(FuncByName.find(Name) == FuncByName.end() && "duplicate function");
  FuncId Id = Functions.size();
  Functions.emplace_back(
      std::make_unique<Function>(Id, Name, NumParams, NumRegs, Owner));
  FuncByName.emplace(std::move(Name), Id);
  return Functions.back().get();
}

GlobalId Module::addGlobal(std::string Name, Type Ty) {
  assert(!Finalized && "cannot add globals after finalize()");
  assert(GlobalByName.find(Name) == GlobalByName.end() && "duplicate global");
  GlobalId Id = Globals.size();
  Globals.push_back({Name, Ty});
  GlobalByName.emplace(std::move(Name), Id);
  return Id;
}

MethodNameId Module::internMethodName(std::string_view Name) {
  auto It = MethodNameIds.find(Name);
  if (It != MethodNameIds.end())
    return It->second;
  MethodNameId Id = MethodNames.size();
  MethodNames.emplace_back(Name);
  MethodNameIds.emplace(MethodNames.back(), Id);
  return Id;
}

NativeId Module::internNativeName(std::string_view Name) {
  auto It = NativeNameIds.find(Name);
  if (It != NativeNameIds.end())
    return It->second;
  NativeId Id = NativeNames.size();
  NativeNames.emplace_back(Name);
  NativeNameIds.emplace(NativeNames.back(), Id);
  return Id;
}

void Module::finalize() {
  assert(!Finalized && "finalize() called twice");
  Finalized = true;

  // Flatten vtables and freeze layouts. Classes are topologically ordered
  // by construction (super declared first).
  for (auto &C : Classes) {
    C->NumSlots = classFirstSlot(C->getId()) + C->ownFields().size();
    if (C->getSuper() != kNoClass)
      C->Vtable = Classes[C->getSuper()]->Vtable;
    for (const auto &[Method, Func] : C->ownMethods())
      C->Vtable[Method] = Func;
  }

  // Dense instruction and allocation-site numbering.
  size_t NumInstrs = 0;
  for (auto &F : Functions)
    for (auto &BB : F->blocks())
      NumInstrs += BB->insts().size();
  InstrTable.reserve(NumInstrs);
  InstrOwner.reserve(NumInstrs);
  for (auto &F : Functions) {
    for (auto &BB : F->blocks()) {
      for (auto &I : BB->insts()) {
        I->Id = InstrTable.size();
        InstrTable.push_back(I.get());
        InstrOwner.push_back(F->getId());
        if (auto *A = dyn_cast<AllocInst>(I.get())) {
          A->Site = AllocSiteTable.size();
          AllocSiteTable.push_back(A);
        } else if (auto *AA = dyn_cast<AllocArrayInst>(I.get())) {
          AA->Site = AllocSiteTable.size();
          AllocSiteTable.push_back(AA);
        }
      }
    }
  }
}

ClassId Module::findClass(std::string_view Name) const {
  auto It = ClassByName.find(Name);
  return It == ClassByName.end() ? kNoClass : It->second;
}

FuncId Module::findFunction(std::string_view Name) const {
  auto It = FuncByName.find(Name);
  return It == FuncByName.end() ? kNoFunc : It->second;
}

GlobalId Module::findGlobal(std::string_view Name) const {
  auto It = GlobalByName.find(Name);
  return It == GlobalByName.end() ? kNoGlobal : It->second;
}

MethodNameId Module::findMethodName(std::string_view Name) const {
  auto It = MethodNameIds.find(Name);
  return It == MethodNameIds.end() ? kNoMethodName : It->second;
}

FieldSlot Module::classFirstSlot(ClassId Class) const {
  const ClassDecl *D = Classes[Class].get();
  if (D->FirstSlotKnown)
    return D->FirstSlot;
  FieldSlot First = 0;
  if (D->getSuper() != kNoClass) {
    const ClassDecl *Super = Classes[D->getSuper()].get();
    First = classFirstSlot(D->getSuper()) + Super->ownFields().size();
    Super->LayoutFrozen = true;
  }
  D->FirstSlot = First;
  D->FirstSlotKnown = true;
  return First;
}

bool Module::resolveField(ClassId Class, std::string_view Name,
                          FieldSlot &SlotOut) const {
  for (ClassId C = Class; C != kNoClass; C = Classes[C]->getSuper()) {
    const ClassDecl *D = Classes[C].get();
    for (size_t I = 0, E = D->ownFields().size(); I != E; ++I) {
      if (D->ownFields()[I].Name == Name) {
        SlotOut = classFirstSlot(C) + I;
        return true;
      }
    }
  }
  return false;
}

bool Module::resolveFieldUnqualified(std::string_view Name,
                                     ClassId &ClassOut,
                                     FieldSlot &SlotOut) const {
  bool Found = false;
  for (const auto &C : Classes) {
    for (size_t I = 0, E = C->ownFields().size(); I != E; ++I) {
      if (C->ownFields()[I].Name != Name)
        continue;
      if (Found)
        return false; // Ambiguous.
      Found = true;
      ClassOut = C->getId();
      SlotOut = classFirstSlot(C->getId()) + I;
    }
  }
  return Found;
}

std::string Module::fieldName(ClassId Class, FieldSlot Slot) const {
  if (Slot == kElemSlot)
    return "ELM";
  if (Slot == kLenSlot)
    return "length";
  for (ClassId C = Class; C != kNoClass; C = Classes[C]->getSuper()) {
    const ClassDecl *D = Classes[C].get();
    FieldSlot First = classFirstSlot(C);
    if (Slot >= First && Slot < First + D->ownFields().size())
      return D->ownFields()[Slot - First].Name;
  }
  return "<slot" + std::to_string(Slot) + ">";
}

FuncId Module::lookupMethod(ClassId C, MethodNameId Method) const {
  assert(C < Classes.size() && "bad class in method lookup");
  const auto &VT = Classes[C]->Vtable;
  auto It = VT.find(Method);
  return It == VT.end() ? kNoFunc : It->second;
}

std::string Module::describeAllocSite(AllocSiteId Site) const {
  const Instruction *I = getAllocSite(Site);
  std::string What;
  if (const auto *A = dyn_cast<AllocInst>(I))
    What = "new " + Classes[A->Class]->getName();
  else if (const auto *AA = dyn_cast<AllocArrayInst>(I))
    What = std::string("new ") + typeKindName(AA->Elem) + "[]";
  else
    lud_unreachable("alloc site is not an allocation");
  return What + " @ " + getInstrFunction(I->getId())->getName() + " #" +
         std::to_string(Site);
}

FuncId Module::getEntry() const {
  if (Entry != kNoFunc)
    return Entry;
  return findFunction("main");
}
