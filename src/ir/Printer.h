//===- ir/Printer.h - Textual IR output ------------------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints modules in the textual .lud format accepted by ir/Parser.h.
/// printModule(parseModule(printModule(M))) is the identity on the printed
/// form (round-trip property, tested in tests/ir).
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_PRINTER_H
#define LUD_IR_PRINTER_H

#include <string>

namespace lud {

class Instruction;
class Module;
class OutStream;

/// Writes the whole module in textual form.
void printModule(const Module &M, OutStream &OS);

/// Writes the one-line textual form of \p I (no trailing newline), e.g.
/// "r3 = add r1, r2".
void printInst(const Module &M, const Instruction &I, OutStream &OS);

/// printInst into a string, for reports and diagnostics.
std::string instToString(const Module &M, const Instruction &I);

} // namespace lud

#endif // LUD_IR_PRINTER_H
