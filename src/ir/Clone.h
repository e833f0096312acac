//===- ir/Clone.h - Instruction cloning -------------------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Copies one instruction. Deriving a whole module — a plain copy, a copy
/// with instructions dropped, or one with injected code — goes through
/// ModuleRewriter (ir/Rewrite.h), which clones every unedited instruction
/// with cloneInstr; ClonePerOpPass copies a function body with it too.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_CLONE_H
#define LUD_IR_CLONE_H

namespace lud {

class Instruction;

/// Clones a single instruction (without parent/id).
Instruction *cloneInstr(const Instruction &I);

} // namespace lud

#endif // LUD_IR_CLONE_H
