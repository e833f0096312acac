//===- ir/ObfuscateImpl.h - Obfuscator walk state (internal) ----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Internal state shared between the obfuscation driver (Obfuscate.cpp)
/// and the per-transform emitters (ObfuscatePasses.cpp). Not a public
/// header; include Obfuscate.h instead.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_OBFUSCATEIMPL_H
#define LUD_IR_OBFUSCATEIMPL_H

#include "ir/Obfuscate.h"
#include "ir/Rewrite.h"
#include "support/RNG.h"

namespace lud {
namespace detail {

/// A manifest entry recorded during the walk. The instruction is handed
/// to the rewriter, which moves it into the output as it is; its dense id
/// is read only after apply() has finalized the output module.
struct PendingTag {
  ObfKind Kind;
  const Instruction *I; // alloc (Junk/StringTable) or CondBr (Opaque)
  FuncId Func;          // function ids carry over from the source module
};

/// An injected instruction sequence, handed to the rewriter as one edit.
using Seq = std::vector<Instruction *>;

/// One obfuscation run: the driver walks the source module and records
/// every injection as a ModuleRewriter edit; the emitters build the
/// injected sequences.
class Obfuscator {
public:
  Obfuscator(const Module &Src, const ObfuscateOptions &Opts)
      : Src(Src), Opts(Opts), Root(Opts.Seed), Rw(Src) {}

  ObfuscationResult run();

private:
  /// A fresh register in the function being walked.
  Reg fresh() { return Rw.newReg(Cur); }
  /// Register-frame size of the function being walked, injections
  /// included.
  unsigned numRegs() const { return Rw.numRegs(Cur); }

  // Transform emitters (ObfuscatePasses.cpp). All append to \p B with
  // fresh registers and bump Injected.
  /// Allocates the module-wide junk accumulator at the top of the entry
  /// function and publishes its ref through JunkSink.
  void emitJunkAccumulator(Seq &B);
  void emitJunk(Seq &B, RNG &R);
  Reg emitJunkChain(Seq &B, RNG &R);
  /// Replaces a Br terminator: emits the guard loads plus the CondBr into
  /// \p B and appends a never-taken diversion block branching back to
  /// \p Target. Returns the CondBr for the manifest.
  Instruction *emitOpaqueGuard(Seq &B, RNG &R, uint32_t Target);
  void emitDiversionPayload(Seq &B);
  void emitStringTableBuild(Seq &B, Reg TabReg, const std::string &FuncName);
  void emitStringDecode(Seq &B, RNG &R, Reg TabReg);

  const Module &Src;
  const ObfuscateOptions &Opts;
  RNG Root;
  ModuleRewriter Rw;
  /// Function being walked.
  FuncId Cur = kNoFunc;

  ClassId JunkClass = kNoClass;
  /// Fields declared on the junk class so far; field i is named "j<i>".
  uint32_t NumJunkFields = 0;
  /// The accumulator object's ref lives here; every junk write loads it.
  GlobalId JunkSink = kNoGlobal;
  GlobalId OpaqueGlobal = kNoGlobal;
  int64_t OpaqueKey = 0;
  int64_t StringKey = 0;

  std::vector<PendingTag> Pending;
  size_t Injected = 0;
};

} // namespace detail
} // namespace lud

#endif // LUD_IR_OBFUSCATEIMPL_H
