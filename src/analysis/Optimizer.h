//===- analysis/Optimizer.h - Profile-guided bloat removal -----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An automatic consumer of the analysis, realizing Section 1's remark
/// that the findings "provide useful insights for automatic code
/// optimization in compilers": stores whose every profiled instance is
/// ultimately dead (the D* set of Table 1(c)) are deleted, and the
/// computation that fed only them is swept up by an iterative
/// dead-code elimination.
///
/// The transformation is *profile-guided and speculative*: it is sound for
/// executions that exercise the same behaviour as the profile (the paper's
/// "representative runs" premise). Callers validate by re-running and
/// comparing observable output (the sink hash); the tests do exactly that
/// over the random program corpus.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_OPTIMIZER_H
#define LUD_ANALYSIS_OPTIMIZER_H

#include "analysis/DeadValues.h"

#include <memory>

namespace lud {

class Module;

struct OptimizerStats {
  /// Heap/static stores removed because all their instances were dead.
  size_t RemovedStores = 0;
  /// Pure value-producing instructions removed by the DCE sweep.
  size_t RemovedPure = 0;
  /// DCE rounds until fixpoint.
  unsigned Iterations = 0;
  size_t removedTotal() const { return RemovedStores + RemovedPure; }
};

struct OptimizeResult {
  std::unique_ptr<Module> M;
  OptimizerStats Stats;
};

/// Rewrites \p M without its profiled-dead stores (per \p DV over \p G)
/// and without the computation that only fed them. \p G and \p DV must
/// come from a whole-program profile of \p M (no phase masking), or dead
/// classifications would be partial.
OptimizeResult removeProfiledDeadCode(const Module &M, const FrozenGraph &G,
                                      const DeadValueAnalysis &DV);

} // namespace lud

#endif // LUD_ANALYSIS_OPTIMIZER_H
