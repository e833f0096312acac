//===- analysis/PassManager.h - Evidence-driven rewrite pipeline -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The rewrite-pass pipeline: an automatic consumer of the analysis that
/// goes beyond deleting profiled-dead stores to *replacing* low-utility
/// data structures, closing the loop described in "Automated
/// Profile-Guided Replacement of Data Structures" (PAPERS.md). Each
/// RewritePass proposes one candidate module at a time from shared
/// PassEvidence (the sealed graph, the per-structure UsageSummary records,
/// the dead-value classification); the PassManager verifies every
/// candidate and validates it against the original module's observables —
/// run status, sink hash, return value, on both execution engines — and
/// either commits it or rolls it back. The candidate's primary-engine
/// validation run is profiled, so a committed candidate's validation is
/// also the evidence later passes read. Every decision carries a
/// machine-checkable rationale into the report.
///
/// The transformations are profile-guided and speculative exactly like
/// the dead-store deleter (analysis/Optimizer.h): sound for executions
/// exercising the profiled behaviour, enforced here by differential
/// validation and downstream by the fuzzer's `optimize` oracle mode.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_PASSMANAGER_H
#define LUD_ANALYSIS_PASSMANAGER_H

#include "analysis/Evidence.h"
#include "profiling/SlicingProfiler.h"
#include "runtime/Engine.h"
#include "runtime/Interpreter.h"

#include <memory>
#include <optional>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace lud {

namespace obs {
class MetricsRegistry;
}

namespace opt {

/// Everything a pass may consult when proposing a rewrite. All pointers
/// borrow from the PassManager's current iteration state and are valid
/// only during next().
struct PassEvidence {
  const Module *M = nullptr;
  const FrozenGraph *G = nullptr;
  const UsageEvidence *Usage = nullptr;
  const DeadValueAnalysis *DV = nullptr;
  uint64_t ExecutedInstrs = 0;
  /// Stable target keys already proposed (applied *or* rolled back);
  /// passes must not re-propose them, or rollback would loop forever.
  const std::set<std::string> *Attempted = nullptr;
  /// Summed node frequency per static instruction (index InstrId).
  const std::vector<uint64_t> *InstrFreq = nullptr;
};

/// One proposed rewrite: the candidate module plus its audit trail.
struct RewriteCandidate {
  std::unique_ptr<Module> M;
  /// Stable identity of the rewritten structure — survives re-profiling
  /// (function names + ordinals, never raw InstrIds).
  std::string Target;
  /// Machine-checkable evidence line for the report: what was rewritten
  /// and the counter values that gated it.
  std::string Rationale;
  size_t RemovedStores = 0;
  size_t RemovedPure = 0;
  /// Instructions the rewrite replaced or synthesized.
  size_t RewrittenInstrs = 0;
};

/// A rewrite pass proposes candidates one at a time; the manager
/// validates, commits or rolls back, and calls next() again with
/// refreshed evidence until the pass returns nullopt.
class RewritePass {
public:
  virtual ~RewritePass();
  virtual const char *name() const = 0;
  virtual std::optional<RewriteCandidate> next(const PassEvidence &E) = 0;
};

/// One pass-table entry: a pass name and the factory that builds the pass
/// under that name.
struct PassInfo {
  const char *Name;
  std::unique_ptr<RewritePass> (*Create)(const char *Name);
};

/// Every pass the pipeline knows, in default pipeline order — the one
/// place pass names and their order are written (Passes.cpp describes
/// each pass).
std::span<const PassInfo> passTable();

/// True for a name in passTable() — CLI validation uses this.
bool isKnownPassName(std::string_view Name);

struct PassStats {
  size_t Applied = 0;
  size_t RolledBack = 0;
  size_t RemovedStores = 0;
  size_t RemovedPure = 0;
  size_t RewrittenInstrs = 0;
};

/// Audit record of one candidate's fate.
struct PassOutcome {
  std::string Pass;
  std::string Target;
  std::string Rationale;
  bool Applied = false;
  /// Why the candidate was rejected (empty when applied).
  std::string Reason;
};

struct PipelineOptions {
  /// The primary engine: the reference run and every candidate's profiled
  /// validation run execute on it.
  EngineKind Engine = defaultEngineKind();
  SlicingConfig Slicing;
  RunConfig Run;
  /// Pass names to run, in order. Empty = every pass in passTable().
  std::vector<std::string> Passes;
  /// When non-null, the pipeline's phase spans land here:
  /// phase.optimize.propose (next() plus evidence derivation) and
  /// phase.optimize.validate (verify, the profiled candidate run and the
  /// join with the other engine's run). Null costs one pointer test.
  obs::MetricsRegistry *Stats = nullptr;
};

struct PipelineResult {
  /// The rewritten module; null when no candidate survived validation.
  std::unique_ptr<Module> M;
  /// Per-pass stats in pipeline order.
  std::vector<std::pair<std::string, PassStats>> PerPass;
  /// Every candidate's fate, in decision order.
  std::vector<PassOutcome> Outcomes;
  uint64_t InstrsBefore = 0;
  uint64_t InstrsAfter = 0;
  uint64_t AllocsBefore = 0;
  uint64_t AllocsAfter = 0;
  /// Status of the reference run; passes only run when it Finished.
  RunStatus ReferenceStatus = RunStatus::Finished;
  /// The pipeline reached its cap of 32 committed rewrites and asked no
  /// pass for further candidates.
  bool Capped = false;
  /// Plain other-engine validation runs, each on its own thread alongside
  /// the candidate's profiled run.
  size_t OtherEngineRuns = 0;

  size_t applied() const {
    size_t N = 0;
    for (const auto &[Name, S] : PerPass)
      N += S.Applied;
    return N;
  }
};

/// A finished whole-program profile of one module, borrowed from whoever
/// ran it: the sealed graph, the substrate's location activity, and the
/// run's result. The pipeline's first round derives its evidence from the
/// graph in place, and the RunResult is the reference every candidate is
/// validated against: it must come from one run of the module under
/// PipelineOptions::Slicing and PipelineOptions::Run on
/// PipelineOptions::Engine, as a single-shard ProfileSession's does.
struct ModuleProfile {
  const FrozenGraph &G;
  const HeapLocMap<LocationActivity> &Activity;
  RunResult Run;
};

/// Drives the pipeline: profile, propose, validate, commit-or-rollback.
class PassManager {
public:
  explicit PassManager(PipelineOptions Opts = {});
  ~PassManager();

  void addPass(std::unique_ptr<RewritePass> P);
  /// Installs the passes named in Opts.Passes, or the whole pass table
  /// when it is empty. Unknown names are skipped.
  void addDefaultPasses();

  /// Runs every pass over \p M. The input module is never mutated.
  /// Profiles \p M, then continues as run(M, Seed) with that profile.
  PipelineResult run(const Module &M);
  /// Runs every pass over \p M, starting from \p Seed, a profile of \p M
  /// the caller already holds (lud-run's report session), so \p M itself
  /// is never executed again.
  PipelineResult run(const Module &M, const ModuleProfile &Seed);

  /// Publishes opt.* counters/gauges for \p R into \p Reg
  /// (opt.removed_stores, opt.rewrites.<pass>, ... — lud.stats.v1).
  static void accountStats(const PipelineResult &R, obs::MetricsRegistry &Reg);

private:
  PipelineOptions Opts;
  std::vector<std::unique_ptr<RewritePass>> Passes;
};

/// Renders the "=== Optimizer ===" report section: per-pass stats and
/// every outcome's rationale.
void renderOptimizeReport(const PipelineResult &R, OutStream &OS);

} // namespace opt
} // namespace lud

#endif // LUD_ANALYSIS_PASSMANAGER_H
