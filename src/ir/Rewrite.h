//===- ir/Rewrite.h - Instruction-level module rewriting -------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// ModuleRewriter: the one way to derive a module from another. A
/// rewriter records edits against a finalized source module — drop an
/// instruction, replace it with a fresh sequence, insert before it, move
/// instructions before another, add registers, globals, classes, blocks
/// and functions, copy a function under a new name — and apply()
/// materializes them as a fresh finalized module, leaving the source
/// untouched. It is also the only code that copies an existing
/// instruction: each unedited one is copy-constructed as its concrete
/// class. Method names, natives, classes, globals, functions and blocks
/// keep their source ids (additions number after them), so call targets
/// and branch labels carry over; only the dense instruction and
/// allocation-site ids are re-assigned by the output's finalize().
///
/// The profile-guided rewrite passes (analysis/PassManager.h) and the
/// dead-code eliminator decide *what* to substitute from profile evidence,
/// the ddmin minimizer drops instruction sets, and the obfuscator
/// (ir/Obfuscate.h) injects its shapes; all of them build through the
/// rewriter, which guarantees the surgery itself is shape-preserving:
/// terminators stay terminators and ids renumber densely.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_REWRITE_H
#define LUD_IR_REWRITE_H

#include "ir/Module.h"

#include <functional>
#include <map>
#include <memory>
#include <vector>

namespace lud {

/// Records instruction-level edits against a finalized module and builds
/// the rewritten module on demand. Edits are keyed by the source module's
/// dense InstrIds, which stay valid until apply() — the output module
/// renumbers densely via finalize(). Instructions handed to an edit are
/// moved into the output as they are, so pointers to them stay valid and
/// read their output ids after apply().
class ModuleRewriter {
public:
  explicit ModuleRewriter(const Module &M);
  ~ModuleRewriter();
  ModuleRewriter(const ModuleRewriter &) = delete;
  ModuleRewriter &operator=(const ModuleRewriter &) = delete;

  /// Drops instruction \p Id from the output. Terminators cannot be
  /// dropped — replace them with another terminator sequence instead.
  void drop(InstrId Id);

  /// Replaces instruction \p Id with \p New (ownership transfers). If the
  /// original is a terminator, the last replacement instruction must be a
  /// terminator too.
  void replaceWith(InstrId Id, std::vector<Instruction *> New);

  /// Inserts \p New (ownership transfers) immediately before instruction
  /// \p Id; composes with drop/replaceWith on the same id.
  void insertBefore(InstrId Id, std::vector<Instruction *> New);

  /// Moves instructions \p Ids of \p At's function, in that order, to just
  /// before instruction \p At: an insertBefore() of their copies plus a
  /// drop() of each, so it composes with insertBefore() on \p At in call
  /// order. None of \p Ids may be a terminator or be replaced.
  void moveBefore(InstrId At, const std::vector<InstrId> &Ids);

  /// Allocates a fresh virtual register in function \p F of the output.
  Reg newReg(FuncId F);

  /// Register-frame size function \p F has in the output so far.
  unsigned numRegs(FuncId F) const;

  /// Declares a module-level static in the output; the returned id is
  /// valid in replacement instructions (it numbers after the source's
  /// globals in declaration order).
  GlobalId addGlobal(std::string Name, Type Ty);

  /// Declares a class without superclass or methods in the output; the
  /// returned id numbers after the source's classes in declaration order.
  ClassId addClass(std::string Name);

  /// Adds a field to class \p C, which addClass() declared; fields may be
  /// added until apply(). Returns the field's layout slot (its own-field
  /// index: the class has no superclass).
  FieldSlot addField(ClassId C, std::string Name, Type Ty);

  /// Appends block \p Body (ownership transfers; the last instruction must
  /// be a terminator) to function \p F of the output, after its source
  /// blocks and any block appended before. Returns the new block's id.
  uint32_t appendBlock(FuncId F, std::vector<Instruction *> Body);

  /// Id the next addFunction() body will receive in the output module
  /// (source functions keep their ids; synthesized ones append).
  FuncId nextFuncId() const;

  /// Schedules \p Emit to run against the output module after the source
  /// functions are copied: build exactly one function per callback (via
  /// Module::addFunction + BasicBlock::append or an IRBuilder). Returns
  /// the function id the body will receive.
  FuncId addFunction(std::function<void(Module &)> Emit);

  /// Appends a copy of source function \p Src named \p Name, owned by no
  /// class, in which each listed instruction of \p Src is replaced by its
  /// sequence (ownership transfers; the rules of replaceWith() hold). The
  /// source function itself is emitted as its own edits say. Returns the
  /// copy's function id.
  FuncId copyFunction(
      FuncId Src, std::string Name,
      std::vector<std::pair<InstrId, std::vector<Instruction *>>> Replace);

  /// True once any edit or addition has been recorded.
  bool changed() const;

  /// Materializes the rewritten module (single-shot; the rewriter is
  /// spent afterwards). The output is finalized.
  std::unique_ptr<Module> apply();

private:
  struct Edit {
    bool Dropped = false;
    bool Replaced = false;
    std::vector<Instruction *> Before;
    std::vector<Instruction *> New;
  };

  struct NewClass {
    std::string Name;
    std::vector<FieldDecl> Fields;
  };

  /// Sorted by InstrId. Edits usually arrive in id order, so a new one is
  /// almost always appended.
  using EditList = std::vector<std::pair<InstrId, Edit>>;

  /// A function appended after the source's: an addFunction() callback,
  /// or (when Emit is empty) a copyFunction() of source function Src.
  struct NewFunc {
    std::function<void(Module &)> Emit;
    FuncId Src = kNoFunc;
    std::string Name;
    EditList Edits;
  };

  /// The record of instruction \p Id in \p List, created on first use.
  Edit &editFor(EditList &List, InstrId Id);

  /// replaceWith() against \p List.
  void replaceIn(EditList &List, InstrId Id, std::vector<Instruction *> New);

  /// Appends the blocks of source function \p F to \p Out, applying the
  /// edits from \p Next on; the walk visits instructions in InstrId order,
  /// so it consumes them in one pass.
  void emitBody(const Function &F, Function &Out, EditList::iterator &Next,
                EditList::iterator End);

  const Module &M;
  bool Applied = false;
  EditList Edits;
  /// Registers added per source function, indexed by FuncId.
  std::vector<uint32_t> ExtraRegs;
  std::map<FuncId, std::vector<std::vector<Instruction *>>> NewBlocks;
  std::vector<NewClass> NewClasses;
  std::vector<GlobalDecl> NewGlobals;
  std::vector<NewFunc> NewFuncs;
};

//===----------------------------------------------------------------------===
// Shared instruction-shape helpers: the one register def/use table (used by
// the optimizer passes, the dead-code eliminator and the verifier; every
// switch below covers all 18 kinds).
//===----------------------------------------------------------------------===

/// Register defined by \p I, or kNoReg for pure consumers (stores,
/// branches, returns, void calls).
Reg definedReg(const Instruction &I);

/// Dst of a *pure producer* — an instruction that only computes a value
/// and may be dropped when that value is unused (Const/Assign/Bin/Un/
/// Alloc/AllocArray/loads). kNoReg for calls, stores and terminators.
Reg pureProducerDst(const Instruction &I);

/// Appends every register \p I reads to \p Out (Dst excluded), in operand
/// order.
void appendUsedRegs(const Instruction &I, std::vector<Reg> &Out);

} // namespace lud

#endif // LUD_IR_REWRITE_H
