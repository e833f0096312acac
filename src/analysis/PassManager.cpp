//===- analysis/PassManager.cpp - Evidence-driven rewrite pipeline ---------===//

#include "analysis/PassManager.h"

#include "ir/Module.h"
#include "ir/Verifier.h"
#include "obs/Metrics.h"
#include "obs/PhaseTimer.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Natives.h"
#include "runtime/ThreadedEngine.h"
#include "support/OutStream.h"

#include <thread>

using namespace lud;
using namespace lud::opt;

RewritePass::~RewritePass() = default;

const UsageEvidence &PassEvidence::usage() const {
  if (!*UsageMemo)
    *UsageMemo = summarizeUsage(*M, *G, DV);
  return **UsageMemo;
}

namespace {

/// Committed rewrites after which the pipeline stops asking for more.
constexpr size_t MaxApplications = 32;

/// Uninstrumented run: the other engine's half of the validation.
RunResult plainRun(const Module &M, EngineKind E, const RunConfig &RC) {
  Heap H;
  ComposedProfiler<> P;
  return runWithEngine(E, M, H, P, RC);
}

/// The differential-oracle observable contract (fuzz/Oracle.h): status,
/// sink hash, and the returned value must survive the rewrite.
bool sameObservables(const RunResult &Ref, const RunResult &Got,
                     const char *Engine, std::string &Why) {
  if (Got.Status != Ref.Status) {
    Why = std::string("status diverged on ") + Engine + " (" +
          runStatusName(Ref.Status) + " -> " + runStatusName(Got.Status) + ")";
    return false;
  }
  if (Got.SinkHash != Ref.SinkHash) {
    Why = std::string("sink hash diverged on ") + Engine;
    return false;
  }
  if (Got.ReturnValue.Kind != Ref.ReturnValue.Kind ||
      valueBits(Got.ReturnValue) != valueBits(Ref.ReturnValue)) {
    Why = std::string("return value diverged on ") + Engine;
    return false;
  }
  return true;
}

/// A profile the pipeline ran itself: the input module's (unseeded run)
/// or a candidate's, whose run is also its primary-engine validation.
struct OwnedProfile {
  FrozenGraph G;
  RunResult Run;

  ModuleProfile view() const { return {G, Run}; }
};

OwnedProfile profileModule(const Module &M, const PipelineOptions &Opts,
                           const RunConfig &RC) {
  OwnedProfile P;
  Heap H;
  SlicingProfiler SP(Opts.Slicing);
  P.Run = runWithEngine(Opts.Engine, M, H, SP, RC);
  P.G = FrozenGraph(SP.graph());
  return P;
}

/// What the passes read beyond the profile itself, derived from the
/// current module's profile. Re-derived after each committed rewrite so
/// later proposals see the structure landscape they actually face.
struct RoundEvidence {
  DeadValueAnalysis DV;
  /// Made by the round's first PassEvidence::usage() call.
  std::optional<UsageEvidence> Usage;
  std::vector<uint64_t> InstrFreq;
};

RoundEvidence deriveEvidence(const ModuleProfile &P, size_t NumInstrs) {
  RoundEvidence E;
  E.DV = computeDeadValues(P.G, P.Run.ExecutedInstrs);
  E.InstrFreq.assign(NumInstrs, 0);
  for (size_t N = 0; N != P.G.numNodes(); ++N)
    E.InstrFreq[P.G.instr(NodeId(N))] += P.G.freq(NodeId(N));
  return E;
}

const PassInfo *findPass(std::string_view Name) {
  for (const PassInfo &P : passTable())
    if (Name == P.Name)
      return &P;
  return nullptr;
}

} // namespace

bool lud::opt::isKnownPassName(std::string_view Name) {
  return findPass(Name) != nullptr;
}

PassManager::PassManager(PipelineOptions Opts) : Opts(std::move(Opts)) {}

PassManager::~PassManager() = default;

void PassManager::addPass(std::unique_ptr<RewritePass> P) {
  Passes.push_back(std::move(P));
}

void PassManager::addDefaultPasses() {
  if (Opts.Passes.empty()) {
    for (const PassInfo &P : passTable())
      addPass(P.Create(P.Name));
    return;
  }
  for (const std::string &Name : Opts.Passes)
    if (const PassInfo *P = findPass(Name))
      addPass(P->Create(P->Name));
}

PipelineResult PassManager::run(const Module &M) {
  RunConfig RC = Opts.Run;
  RC.PrintStream = nullptr;
  OwnedProfile P = profileModule(M, Opts, RC);
  return run(M, P.view());
}

PipelineResult PassManager::run(const Module &M, const ModuleProfile &Seed) {
  PipelineResult R;
  if (Passes.empty())
    addDefaultPasses();

  const RunResult &Ref = Seed.Run;
  R.ReferenceStatus = Ref.Status;
  R.InstrsBefore = R.InstrsAfter = Ref.ExecutedInstrs;
  R.AllocsBefore = R.AllocsAfter = Ref.ObjectsAllocated;
  for (const auto &P : Passes)
    R.PerPass.emplace_back(P->name(), PassStats{});
  // A trapped or budget-capped reference run gives no baseline to
  // validate rewrites against; leave the module alone.
  if (Ref.Status != RunStatus::Finished)
    return R;

  EngineKind Other = Opts.Engine == EngineKind::Interp ? EngineKind::Threaded
                                                       : EngineKind::Interp;

  // Candidate runs get a hard budget: a rewrite that quadruples the work
  // (or loops) is broken regardless of what it would eventually output.
  RunConfig ValCfg = Opts.Run;
  ValCfg.PrintStream = nullptr;
  uint64_t Guard = Ref.ExecutedInstrs < (~uint64_t(0) >> 3)
                       ? Ref.ExecutedInstrs * 4 + 10000
                       : ~uint64_t(0);
  if (Guard < ValCfg.MaxInstructions)
    ValCfg.MaxInstructions = Guard;

  // The current module and its profile: the input and the seed until a
  // commit, then the committed candidate and its own validation profile.
  // Evidence is derived lazily, so a commit that hits the cap derives none.
  std::unique_ptr<Module> Owned;
  const Module *Cur = &M;
  std::optional<OwnedProfile> Committed;
  std::optional<RoundEvidence> Ev;
  std::set<std::string> Attempted;
  size_t Applications = 0;

  for (size_t PI = 0; PI != Passes.size(); ++PI) {
    RewritePass &Pass = *Passes[PI];
    PassStats &PS = R.PerPass[PI].second;
    while (Applications < MaxApplications) {
      std::optional<RewriteCandidate> Cand;
      {
        obs::PhaseTimer Span(Opts.Stats, "optimize.propose");
        ModuleProfile P = Committed ? Committed->view() : Seed;
        if (!Ev)
          Ev = deriveEvidence(P, Cur->getNumInstrs());
        PassEvidence E;
        E.M = Cur;
        E.G = &P.G;
        E.DV = &Ev->DV;
        E.ExecutedInstrs = P.Run.ExecutedInstrs;
        E.Attempted = &Attempted;
        E.InstrFreq = &Ev->InstrFreq;
        E.UsageMemo = &Ev->Usage;
        Cand = Pass.next(E);
      }
      if (!Cand)
        break;
      Attempted.insert(Cand->Target);

      PassOutcome O;
      O.Pass = Pass.name();
      O.Target = Cand->Target;
      O.Rationale = Cand->Rationale;

      // Verify, then profile the candidate on the primary engine while
      // the other engine runs it plain alongside. The primary result is
      // checked first; on commit its profile is the next round's evidence.
      std::optional<OwnedProfile> CandProf;
      {
        obs::PhaseTimer Span(Opts.Stats, "optimize.validate");
        std::vector<std::string> Diags;
        if (!verifyModule(*Cand->M, Diags)) {
          O.Reason = "verifier: " + (Diags.empty() ? std::string() : Diags[0]);
        } else {
          RunResult OtherRun;
          ++R.OtherEngineRuns;
          std::jthread OtherJob(
              [&] { OtherRun = plainRun(*Cand->M, Other, ValCfg); });
          CandProf = profileModule(*Cand->M, Opts, ValCfg);
          OtherJob.join();
          if (sameObservables(Ref, CandProf->Run, engineKindName(Opts.Engine),
                              O.Reason))
            sameObservables(Ref, OtherRun, engineKindName(Other), O.Reason);
        }
      }
      if (!O.Reason.empty()) {
        ++PS.RolledBack;
        R.Outcomes.push_back(std::move(O));
        continue;
      }

      O.Applied = true;
      ++PS.Applied;
      PS.RemovedStores += Cand->RemovedStores;
      PS.RemovedPure += Cand->RemovedPure;
      PS.RewrittenInstrs += Cand->RewrittenInstrs;
      R.Outcomes.push_back(std::move(O));
      R.InstrsAfter = CandProf->Run.ExecutedInstrs;
      R.AllocsAfter = CandProf->Run.ObjectsAllocated;
      Ev.reset();
      Committed = std::move(CandProf);
      Owned = std::move(Cand->M);
      Cur = Owned.get();
      ++Applications;
    }
  }

  R.Capped = Applications >= MaxApplications;
  R.M = std::move(Owned);
  return R;
}

namespace {

/// Metric names stay in lud.stats.v1's snake_case vocabulary.
std::string metricName(const std::string &Pass) {
  std::string Out = "opt.rewrites.";
  for (char C : Pass)
    Out += C == '-' ? '_' : C;
  return Out;
}

} // namespace

void PassManager::accountStats(const PipelineResult &R,
                               obs::MetricsRegistry &Reg) {
  PassStats Sum;
  for (const auto &[Name, S] : R.PerPass) {
    Sum.Applied += S.Applied;
    Sum.RolledBack += S.RolledBack;
    Sum.RemovedStores += S.RemovedStores;
    Sum.RemovedPure += S.RemovedPure;
  }
  // Registration order is the lud.stats.v1 output order.
  Reg.add(Reg.counter("opt.removed_stores"), Sum.RemovedStores);
  Reg.add(Reg.counter("opt.removed_pure"), Sum.RemovedPure);
  for (const auto &[Name, S] : R.PerPass)
    Reg.add(Reg.counter(metricName(Name)), S.Applied);
  Reg.add(Reg.counter("opt.passes_applied"), Sum.Applied);
  Reg.add(Reg.counter("opt.passes_rolled_back"), Sum.RolledBack);
  Reg.add(Reg.counter("opt.capped"), R.Capped ? 1 : 0);
  Reg.set(Reg.gauge("opt.executed_before"), R.InstrsBefore);
  Reg.set(Reg.gauge("opt.executed_after"), R.InstrsAfter);
  Reg.set(Reg.gauge("opt.allocs_before"), R.AllocsBefore);
  Reg.set(Reg.gauge("opt.allocs_after"), R.AllocsAfter);
}

void lud::opt::renderOptimizeReport(const PipelineResult &R, OutStream &OS) {
  OS << "=== Optimizer ===\n";
  OS << "reference: status=" << runStatusName(R.ReferenceStatus)
     << " instrs=" << R.InstrsBefore << " allocs=" << R.AllocsBefore << "\n";
  for (const auto &[Name, S] : R.PerPass) {
    OS << "pass " << Name << ": applied=" << uint64_t(S.Applied)
       << " rolled-back=" << uint64_t(S.RolledBack);
    if (S.RemovedStores || S.RemovedPure)
      OS << " removed-stores=" << uint64_t(S.RemovedStores)
         << " removed-pure=" << uint64_t(S.RemovedPure);
    if (S.RewrittenInstrs)
      OS << " rewritten=" << uint64_t(S.RewrittenInstrs);
    OS << "\n";
  }
  for (const PassOutcome &O : R.Outcomes) {
    if (O.Applied)
      OS << "[applied] ";
    else
      OS << "[rolled-back: " << O.Reason << "] ";
    OS << O.Pass << " " << O.Target << ": " << O.Rationale << "\n";
  }
  if (R.Capped)
    OS << "stopped at the cap of " << uint64_t(R.applied())
       << " applications; later passes did not run\n";
  if (R.M) {
    OS << "executed instrs: " << R.InstrsBefore << " -> " << R.InstrsAfter;
    if (R.InstrsBefore && R.InstrsAfter <= R.InstrsBefore) {
      double Saved = 100.0 * double(R.InstrsBefore - R.InstrsAfter) /
                     double(R.InstrsBefore);
      OS << " (";
      OS.printFixed(Saved, 1);
      OS << "% saved)";
    }
    OS << "\n";
    OS << "allocations: " << R.AllocsBefore << " -> " << R.AllocsAfter
       << "\n";
  } else {
    OS << "no rewrites applied\n";
  }
}
