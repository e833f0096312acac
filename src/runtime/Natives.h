//===- runtime/Natives.h - Native function registry ------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Native methods: the boundary where data leaves the managed world. The
/// profiler models consumer natives as the paper's "native nodes", and a
/// value reaching one counts as program output (infinite benefit weight,
/// Section 1). The standard registry provides deterministic I/O surrogates.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_RUNTIME_NATIVES_H
#define LUD_RUNTIME_NATIVES_H

#include "runtime/Value.h"

#include <cstddef>
#include <string>
#include <unordered_map>
#include <vector>

namespace lud {

class Heap;
class OutStream;

/// Mutable state shared by the natives of one run.
struct NativeContext {
  Heap *TheHeap = nullptr;
  /// When set, `print` writes here; otherwise it folds into SinkHash.
  OutStream *Print = nullptr;
  /// Deterministic input tape for the `input` native (wraps around).
  const std::vector<int64_t> *Input = nullptr;
  size_t InputCursor = 0;
  /// Fold of everything sunk/printed; keeps outputs observable and makes
  /// the baseline run impossible to dead-code away.
  uint64_t SinkHash = 0;
  /// Monotonic counter backing the `timestamp` native.
  int64_t Clock = 0;
};

using NativeFn = Value (*)(NativeContext &Ctx, const Value *Args, size_t N);

struct NativeDecl {
  std::string Name;
  NativeFn Fn = nullptr;
  /// Consumer natives are output sinks: the paper's native nodes.
  bool IsConsumer = false;
  bool HasResult = false;
};

/// Bit pattern of \p V: the word the sink natives fold into SinkHash, and
/// the exact-identity key for comparing values (floats compare bitwise;
/// refs carry bit 63, so compare Kind first when it matters).
uint64_t valueBits(const Value &V);

/// Name-keyed collection of native implementations. The interpreter binds a
/// module's interned native names against a registry at run start.
class NativeRegistry {
public:
  /// Registers \p D; later registrations with the same name win.
  void add(NativeDecl D) { Decls[D.Name] = std::move(D); }

  /// Returns the declaration for \p Name or null.
  const NativeDecl *find(const std::string &Name) const {
    auto It = Decls.find(Name);
    return It == Decls.end() ? nullptr : &It->second;
  }

  /// The standard natives: print, sink, input, timestamp.
  static const NativeRegistry &standard();

private:
  std::unordered_map<std::string, NativeDecl> Decls;
};

/// Name of the phase-marker pseudo-native, interpreted by the interpreter
/// itself (selective tracking, Section 4.1); it never reaches the registry
/// and produces no graph node.
inline constexpr const char *kPhaseNativeName = "phase";

} // namespace lud

#endif // LUD_RUNTIME_NATIVES_H
