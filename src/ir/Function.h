//===- ir/Function.h - Basic blocks and functions --------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BasicBlock and Function: straight-line instruction sequences ended by a
/// terminator, grouped into functions with a flat virtual register frame.
/// Parameters occupy registers [0, NumParams); instance methods receive
/// `this` in register 0.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_FUNCTION_H
#define LUD_IR_FUNCTION_H

#include "ir/Instruction.h"

#include <memory>
#include <string>
#include <vector>

namespace lud {

/// A sequence of instructions whose last element is a terminator.
class BasicBlock {
public:
  explicit BasicBlock(uint32_t Id) : Id(Id) {}

  /// Appends \p I and takes ownership. Returns \p I for chaining.
  Instruction *append(Instruction *I) {
    I->Parent = this;
    Insts.emplace_back(I);
    return I;
  }

  /// Makes room for \p N more instructions.
  void reserve(size_t N) { Insts.reserve(Insts.size() + N); }

  uint32_t getId() const { return Id; }
  const std::vector<std::unique_ptr<Instruction>> &insts() const {
    return Insts;
  }
  bool empty() const { return Insts.empty(); }
  Instruction *terminator() const {
    return Insts.empty() ? nullptr : Insts.back().get();
  }

private:
  uint32_t Id;
  std::vector<std::unique_ptr<Instruction>> Insts;
};

/// A function: name, register frame size, and basic blocks (block 0 is the
/// entry). Instance methods carry their owning class; they participate in
/// virtual dispatch and extend the receiver-object context chain.
class Function {
public:
  Function(FuncId Id, std::string Name, unsigned NumParams, unsigned NumRegs,
           ClassId Owner = kNoClass)
      : Id(Id), Name(std::move(Name)), NumParams(NumParams), NumRegs(NumRegs),
        Owner(Owner) {}

  /// Creates, owns and returns a new basic block.
  BasicBlock *addBlock() {
    Blocks.emplace_back(std::make_unique<BasicBlock>(Blocks.size()));
    return Blocks.back().get();
  }

  FuncId getId() const { return Id; }
  const std::string &getName() const { return Name; }
  unsigned getNumParams() const { return NumParams; }
  unsigned getNumRegs() const { return NumRegs; }
  void setNumRegs(unsigned N) { NumRegs = N; }
  ClassId getOwner() const { return Owner; }
  bool isMethod() const { return Owner != kNoClass; }

  const std::vector<std::unique_ptr<BasicBlock>> &blocks() const {
    return Blocks;
  }
  BasicBlock *getBlock(uint32_t I) const {
    assert(I < Blocks.size() && "block index out of range");
    return Blocks[I].get();
  }
  BasicBlock *entry() const {
    assert(!Blocks.empty() && "function has no entry block");
    return Blocks.front().get();
  }

private:
  FuncId Id;
  std::string Name;
  unsigned NumParams;
  unsigned NumRegs;
  ClassId Owner;
  std::vector<std::unique_ptr<BasicBlock>> Blocks;
};

} // namespace lud

#endif // LUD_IR_FUNCTION_H
