//===- ir/Rewrite.cpp - Instruction-level module rewriting -----------------===//

#include "ir/Rewrite.h"

#include "support/ErrorHandling.h"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <limits>

using namespace lud;

namespace {

template <typename T> Instruction *copyAs(const Instruction &I) {
  return new T(*cast<T>(&I));
}

/// copyAs<T> of each Instruction::Kind, in declaration order (cast<T>
/// checks the order in assert builds).
constexpr Instruction *(*const CopyByKind[])(const Instruction &) = {
    copyAs<ConstInst>,       copyAs<AssignInst>,      copyAs<BinInst>,
    copyAs<UnInst>,          copyAs<AllocInst>,       copyAs<AllocArrayInst>,
    copyAs<LoadFieldInst>,   copyAs<StoreFieldInst>,  copyAs<LoadStaticInst>,
    copyAs<StoreStaticInst>, copyAs<LoadElemInst>,    copyAs<StoreElemInst>,
    copyAs<ArrayLenInst>,    copyAs<CallInst>,        copyAs<NativeCallInst>,
    copyAs<BrInst>,          copyAs<CondBrInst>,      copyAs<ReturnInst>};
static_assert(std::size(CopyByKind) == size_t(Instruction::Kind::Return) + 1,
              "one copy function per instruction kind");

/// A copy of \p I in no block, its fields copied by its own class.
Instruction *copyInstr(const Instruction &I) {
  return CopyByKind[size_t(I.getKind())](I);
}

} // namespace

ModuleRewriter::ModuleRewriter(const Module &M)
    : M(M), ExtraRegs(M.functions().size(), 0) {
  assert(M.isFinalized() && "rewriter needs the dense InstrId numbering");
}

ModuleRewriter::~ModuleRewriter() {
  if (Applied)
    return;
  auto Free = [](EditList &List) {
    for (auto &[Id, E] : List) {
      (void)Id;
      for (Instruction *I : E.Before)
        delete I;
      for (Instruction *I : E.New)
        delete I;
    }
  };
  Free(Edits);
  for (NewFunc &F : NewFuncs)
    Free(F.Edits);
  for (auto &[F, Blocks] : NewBlocks) {
    (void)F;
    for (const std::vector<Instruction *> &Body : Blocks)
      for (Instruction *I : Body)
        delete I;
  }
}

ModuleRewriter::Edit &ModuleRewriter::editFor(EditList &List, InstrId Id) {
  assert(!Applied && "rewriter already applied");
  if (List.empty() || List.back().first < Id)
    return List.emplace_back(Id, Edit()).second;
  auto It = std::lower_bound(
      List.begin(), List.end(), Id,
      [](const auto &E, InstrId Key) { return E.first < Key; });
  if (It->first != Id)
    It = List.emplace(It, Id, Edit());
  return It->second;
}

void ModuleRewriter::drop(InstrId Id) {
  assert(!Applied && "rewriter already applied");
  assert(!M.getInstr(Id)->isTerminator() &&
         "terminators cannot be dropped; replace them instead");
  Edit &E = editFor(Edits, Id);
  assert(!E.Replaced && "instruction already replaced");
  E.Dropped = true;
}

void ModuleRewriter::replaceIn(EditList &List, InstrId Id,
                               std::vector<Instruction *> New) {
  Edit &E = editFor(List, Id);
  assert(!E.Dropped && !E.Replaced && "instruction already edited");
  assert(!New.empty() && "use drop() to delete an instruction");
  if (M.getInstr(Id)->isTerminator())
    assert(New.back()->isTerminator() &&
           "replacing a terminator requires a terminator sequence");
  E.Replaced = true;
  E.New = std::move(New);
}

void ModuleRewriter::replaceWith(InstrId Id, std::vector<Instruction *> New) {
  replaceIn(Edits, Id, std::move(New));
}

void ModuleRewriter::insertBefore(InstrId Id, std::vector<Instruction *> New) {
  assert(!Applied && "rewriter already applied");
  Edit &E = editFor(Edits, Id);
  if (E.Before.empty())
    E.Before = std::move(New);
  else
    E.Before.insert(E.Before.end(), New.begin(), New.end());
}

void ModuleRewriter::moveBefore(InstrId At, const std::vector<InstrId> &Ids) {
  std::vector<Instruction *> Moved;
  Moved.reserve(Ids.size());
  for (InstrId Id : Ids) {
    assert(Id != At && "an instruction cannot move before itself");
    assert(M.getInstrFunction(Id) == M.getInstrFunction(At) &&
           "instructions move inside their function");
    Moved.push_back(copyInstr(*M.getInstr(Id)));
    drop(Id);
  }
  insertBefore(At, std::move(Moved));
}

Reg ModuleRewriter::newReg(FuncId F) {
  assert(!Applied && "rewriter already applied");
  uint32_t R = numRegs(F);
  assert(R < std::numeric_limits<Reg>::max() && "register frame overflow");
  ++ExtraRegs[F];
  return Reg(R);
}

unsigned ModuleRewriter::numRegs(FuncId F) const {
  return M.getFunction(F)->getNumRegs() + ExtraRegs[F];
}

GlobalId ModuleRewriter::addGlobal(std::string Name, Type Ty) {
  assert(!Applied && "rewriter already applied");
  NewGlobals.push_back(GlobalDecl{std::move(Name), Ty});
  return GlobalId(M.globals().size() + NewGlobals.size() - 1);
}

ClassId ModuleRewriter::addClass(std::string Name) {
  assert(!Applied && "rewriter already applied");
  NewClasses.push_back(NewClass{std::move(Name), {}});
  return ClassId(M.classes().size() + NewClasses.size() - 1);
}

FieldSlot ModuleRewriter::addField(ClassId C, std::string Name, Type Ty) {
  assert(!Applied && "rewriter already applied");
  assert(C >= M.classes().size() && "only added classes take new fields");
  std::vector<FieldDecl> &Fields = NewClasses[C - M.classes().size()].Fields;
  Fields.push_back(FieldDecl{std::move(Name), Ty});
  return FieldSlot(Fields.size() - 1);
}

uint32_t ModuleRewriter::appendBlock(FuncId F,
                                     std::vector<Instruction *> Body) {
  assert(!Applied && "rewriter already applied");
  assert(!Body.empty() && Body.back()->isTerminator() &&
         "a block ends in a terminator");
  std::vector<std::vector<Instruction *>> &Blocks = NewBlocks[F];
  Blocks.push_back(std::move(Body));
  return uint32_t(M.getFunction(F)->blocks().size() + Blocks.size() - 1);
}

FuncId ModuleRewriter::nextFuncId() const {
  return FuncId(M.functions().size() + NewFuncs.size());
}

FuncId ModuleRewriter::addFunction(std::function<void(Module &)> Emit) {
  assert(!Applied && "rewriter already applied");
  FuncId Id = nextFuncId();
  NewFuncs.push_back(NewFunc{std::move(Emit), kNoFunc, {}, {}});
  return Id;
}

FuncId ModuleRewriter::copyFunction(
    FuncId Src, std::string Name,
    std::vector<std::pair<InstrId, std::vector<Instruction *>>> Replace) {
  assert(!Applied && "rewriter already applied");
  FuncId Id = nextFuncId();
  NewFunc &F = NewFuncs.emplace_back(NewFunc{{}, Src, std::move(Name), {}});
  for (auto &[At, New] : Replace) {
    assert(M.getInstrFunction(At)->getId() == Src &&
           "a copy's replacements name instructions of its source");
    replaceIn(F.Edits, At, std::move(New));
  }
  return Id;
}

bool ModuleRewriter::changed() const {
  return !Edits.empty() || !NewGlobals.empty() || !NewFuncs.empty() ||
         !NewBlocks.empty() || !NewClasses.empty() ||
         std::any_of(ExtraRegs.begin(), ExtraRegs.end(),
                     [](uint32_t N) { return N != 0; });
}

std::unique_ptr<Module> ModuleRewriter::apply() {
  assert(!Applied && "rewriter is single-shot");
  Applied = true;

  auto Out = std::make_unique<Module>();

  // Interned names first so MethodNameId / NativeId values carry over,
  // then classes and globals in declaration order (same order => same
  // ids), each followed by the ones the edits added.
  for (const std::string &Name : M.methodNames())
    Out->internMethodName(Name);
  for (const std::string &Name : M.nativeNames())
    Out->internNativeName(Name);
  for (const auto &C : M.classes()) {
    ClassDecl *NC = Out->addClass(C->getName(), C->getSuper());
    for (const FieldDecl &F : C->ownFields())
      NC->addField(F.Name, F.Ty);
    for (const auto &[Method, Func] : C->ownMethods())
      NC->addMethod(Method, Func);
  }
  for (NewClass &C : NewClasses) {
    ClassDecl *NC = Out->addClass(std::move(C.Name));
    for (FieldDecl &F : C.Fields)
      NC->addField(std::move(F.Name), F.Ty);
  }
  for (const GlobalDecl &G : M.globals())
    Out->addGlobal(G.Name, G.Ty);
  for (GlobalDecl &G : NewGlobals)
    Out->addGlobal(std::move(G.Name), G.Ty);

  auto NextEdit = Edits.begin();
  for (const auto &F : M.functions()) {
    Function *NF = Out->addFunction(F->getName(), F->getNumParams(),
                                    numRegs(F->getId()), F->getOwner());
    emitBody(*F, *NF, NextEdit, Edits.end());
    if (auto It = NewBlocks.find(F->getId()); It != NewBlocks.end()) {
      for (std::vector<Instruction *> &Body : It->second) {
        BasicBlock *NB = NF->addBlock();
        for (Instruction *NI : Body)
          NB->append(NI);
        Body.clear();
      }
    }
  }

  for (NewFunc &NF : NewFuncs) {
    if (NF.Emit) {
      NF.Emit(*Out);
      continue;
    }
    const Function &Src = *M.getFunction(NF.Src);
    Function *Copy = Out->addFunction(std::move(NF.Name),
                                      Src.getNumParams(), Src.getNumRegs());
    auto Next = NF.Edits.begin();
    emitBody(Src, *Copy, Next, NF.Edits.end());
  }

  if (M.getEntry() != kNoFunc)
    Out->setEntry(M.getEntry());
  Out->finalize();
  return Out;
}

void ModuleRewriter::emitBody(const Function &F, Function &Out,
                              EditList::iterator &Next,
                              EditList::iterator End) {
  for (const auto &BB : F.blocks()) {
    BasicBlock *NB = Out.addBlock();
    for (const auto &I : BB->insts()) {
      if (Next == End || Next->first != I->getId()) {
        NB->append(copyInstr(*I));
        continue;
      }
      Edit &E = Next->second;
      ++Next;
      for (Instruction *NI : E.Before)
        NB->append(NI);
      E.Before.clear();
      if (E.Replaced) {
        for (Instruction *NI : E.New)
          NB->append(NI);
        E.New.clear();
      } else if (!E.Dropped) {
        NB->append(copyInstr(*I));
      }
    }
  }
}

//===----------------------------------------------------------------------===
// Shared instruction-shape helpers.
//===----------------------------------------------------------------------===

Reg lud::definedReg(const Instruction &I) {
  switch (I.getKind()) {
  case Instruction::Kind::Const:
    return cast<ConstInst>(&I)->Dst;
  case Instruction::Kind::Assign:
    return cast<AssignInst>(&I)->Dst;
  case Instruction::Kind::Bin:
    return cast<BinInst>(&I)->Dst;
  case Instruction::Kind::Un:
    return cast<UnInst>(&I)->Dst;
  case Instruction::Kind::Alloc:
    return cast<AllocInst>(&I)->Dst;
  case Instruction::Kind::AllocArray:
    return cast<AllocArrayInst>(&I)->Dst;
  case Instruction::Kind::LoadField:
    return cast<LoadFieldInst>(&I)->Dst;
  case Instruction::Kind::LoadStatic:
    return cast<LoadStaticInst>(&I)->Dst;
  case Instruction::Kind::LoadElem:
    return cast<LoadElemInst>(&I)->Dst;
  case Instruction::Kind::ArrayLen:
    return cast<ArrayLenInst>(&I)->Dst;
  case Instruction::Kind::Call:
    return cast<CallInst>(&I)->Dst;
  case Instruction::Kind::NativeCall:
    return cast<NativeCallInst>(&I)->Dst;
  case Instruction::Kind::StoreField:
  case Instruction::Kind::StoreStatic:
  case Instruction::Kind::StoreElem:
  case Instruction::Kind::Br:
  case Instruction::Kind::CondBr:
  case Instruction::Kind::Return:
    return kNoReg;
  }
  lud_unreachable("unknown instruction kind");
}

Reg lud::pureProducerDst(const Instruction &I) {
  switch (I.getKind()) {
  case Instruction::Kind::Const:
  case Instruction::Kind::Assign:
  case Instruction::Kind::Bin:
  case Instruction::Kind::Un:
  case Instruction::Kind::Alloc:
  case Instruction::Kind::AllocArray:
  // Loads are pure value producers too; their only side effect is a
  // potential trap, which profile evidence shows does not fire.
  case Instruction::Kind::LoadField:
  case Instruction::Kind::LoadStatic:
  case Instruction::Kind::LoadElem:
  case Instruction::Kind::ArrayLen:
    return definedReg(I);
  default:
    return kNoReg;
  }
}

void lud::appendUsedRegs(const Instruction &I, std::vector<Reg> &Out) {
  switch (I.getKind()) {
  case Instruction::Kind::Const:
  case Instruction::Kind::Alloc:
  case Instruction::Kind::LoadStatic:
  case Instruction::Kind::Br:
    break;
  case Instruction::Kind::Assign:
    Out.push_back(cast<AssignInst>(&I)->Src);
    break;
  case Instruction::Kind::Bin: {
    const auto *B = cast<BinInst>(&I);
    Out.push_back(B->Lhs);
    Out.push_back(B->Rhs);
    break;
  }
  case Instruction::Kind::Un:
    Out.push_back(cast<UnInst>(&I)->Src);
    break;
  case Instruction::Kind::AllocArray:
    Out.push_back(cast<AllocArrayInst>(&I)->Len);
    break;
  case Instruction::Kind::LoadField:
    Out.push_back(cast<LoadFieldInst>(&I)->Base);
    break;
  case Instruction::Kind::StoreField: {
    const auto *S = cast<StoreFieldInst>(&I);
    Out.push_back(S->Base);
    Out.push_back(S->Src);
    break;
  }
  case Instruction::Kind::StoreStatic:
    Out.push_back(cast<StoreStaticInst>(&I)->Src);
    break;
  case Instruction::Kind::LoadElem: {
    const auto *L = cast<LoadElemInst>(&I);
    Out.push_back(L->Base);
    Out.push_back(L->Index);
    break;
  }
  case Instruction::Kind::StoreElem: {
    const auto *S = cast<StoreElemInst>(&I);
    Out.push_back(S->Base);
    Out.push_back(S->Index);
    Out.push_back(S->Src);
    break;
  }
  case Instruction::Kind::ArrayLen:
    Out.push_back(cast<ArrayLenInst>(&I)->Base);
    break;
  case Instruction::Kind::Call:
    for (Reg A : cast<CallInst>(&I)->Args)
      Out.push_back(A);
    break;
  case Instruction::Kind::NativeCall:
    for (Reg A : cast<NativeCallInst>(&I)->Args)
      Out.push_back(A);
    break;
  case Instruction::Kind::CondBr: {
    const auto *C = cast<CondBrInst>(&I);
    Out.push_back(C->Lhs);
    Out.push_back(C->Rhs);
    break;
  }
  case Instruction::Kind::Return:
    if (cast<ReturnInst>(&I)->Src != kNoReg)
      Out.push_back(cast<ReturnInst>(&I)->Src);
    break;
  }
}
