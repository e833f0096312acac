//===- fuzz/Minimizer.h - ddmin program reduction --------------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Delta-debugging reduction of failing .lud programs (Zeller &
/// Hildebrandt's ddmin over instruction sets). The reduction state is an
/// alive-set over the ORIGINAL module's instruction ids; every trial
/// rebuilds the original through ir::ModuleRewriter, dropping the dead
/// (always non-terminator) instructions, and re-runs the caller's failure
/// predicate on the result.
/// Terminators are never dropped, so every candidate is structurally
/// well-formed; registers read without a surviving definition hold the
/// default Int 0, so candidates execute (possibly trapping — traps are
/// ordinary, deterministic outcomes the oracle cross-checks like any
/// other).
///
/// Three granularity passes — whole function bodies, whole blocks, single
/// instructions — each run the classic ddmin loop (reduce-to-chunk, then
/// reduce-to-complement, doubling granularity when stuck), and the
/// instruction pass repeats to a fixpoint.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_FUZZ_MINIMIZER_H
#define LUD_FUZZ_MINIMIZER_H

#include <cstdint>
#include <functional>
#include <memory>

namespace lud {

class Module;

namespace fuzz {

/// Returns true when the candidate still exhibits the failure being
/// chased. The minimizer keeps an instruction only if removing it makes
/// the predicate return false.
using FailurePredicate = std::function<bool(const Module &)>;

struct MinimizerOptions {
  /// Cap on predicate evaluations; reduction stops (keeping the best
  /// candidate so far) when exhausted.
  uint64_t MaxTrials = 4096;
};

struct MinimizeResult {
  /// The smallest failing module found; a plain clone of the input when
  /// the failure did not reproduce.
  std::unique_ptr<Module> M;
  /// Whether the predicate held on (a clone of) the unmodified input.
  bool Reproduced = false;
  /// Droppable (non-terminator) instruction counts before and after.
  uint32_t OriginalInstrs = 0;
  uint32_t FinalInstrs = 0;
  /// Predicate evaluations spent.
  uint64_t Trials = 0;
};

/// Shrinks \p M while \p Fails keeps returning true on the candidate.
MinimizeResult minimizeModule(const Module &M, const FailurePredicate &Fails,
                              MinimizerOptions Opts = {});

} // namespace fuzz
} // namespace lud

#endif // LUD_FUZZ_MINIMIZER_H
