//===- fuzz/Minimizer.cpp - ddmin program reduction ------------------------===//

#include "fuzz/Minimizer.h"

#include "ir/Module.h"
#include "ir/Rewrite.h"

#include <algorithm>
#include <vector>

using namespace lud;
using namespace lud::fuzz;

namespace {

/// One reduction: the alive-set over original instruction ids plus the
/// trial budget. Units are groups of instruction ids removed together.
class Shrinker {
public:
  Shrinker(const Module &M, const FailurePredicate &Fails,
           MinimizerOptions Opts)
      : Orig(M), Fails(Fails), Opts(Opts), Alive(M.getNumInstrs(), true) {}

  std::unique_ptr<Module> build(const std::vector<bool> &A) const {
    ModuleRewriter RW(Orig);
    for (uint32_t Id = 0; Id != Orig.getNumInstrs(); ++Id)
      if (!A[Id])
        RW.drop(InstrId(Id));
    return RW.apply();
  }

  bool failsWith(const std::vector<bool> &A) {
    if (Trials >= Opts.MaxTrials)
      return false;
    ++Trials;
    std::unique_ptr<Module> Candidate = build(A);
    return Fails(*Candidate);
  }

  /// Droppable = non-terminator and still alive.
  uint32_t aliveCount() const {
    uint32_t N = 0;
    for (uint32_t Id = 0; Id != Orig.getNumInstrs(); ++Id)
      if (Alive[Id] && !Orig.getInstr(InstrId(Id))->isTerminator())
        ++N;
    return N;
  }

  enum class Granularity { Function, Block, Instruction };

  /// Groups the currently-alive droppable instructions into removal units.
  std::vector<std::vector<uint32_t>> units(Granularity G) const {
    std::vector<std::vector<uint32_t>> Units;
    for (const auto &F : Orig.functions()) {
      if (G == Granularity::Function)
        Units.emplace_back();
      for (const auto &BB : F->blocks()) {
        if (G == Granularity::Block)
          Units.emplace_back();
        for (const auto &IPtr : BB->insts()) {
          const Instruction &I = *IPtr;
          if (I.isTerminator() || !Alive[I.getId()])
            continue;
          if (G == Granularity::Instruction)
            Units.emplace_back();
          Units.back().push_back(uint32_t(I.getId()));
        }
        if (G == Granularity::Block && Units.back().empty())
          Units.pop_back();
      }
      if (G == Granularity::Function && Units.back().empty())
        Units.pop_back();
    }
    return Units;
  }

  /// Classic ddmin over \p Units: try keeping only one chunk, then try
  /// removing one chunk (complement), doubling the number of chunks when
  /// neither makes progress. The alive-set shrinks monotonically.
  void ddmin(std::vector<std::vector<uint32_t>> Units) {
    size_t N = std::min<size_t>(2, std::max<size_t>(Units.size(), 1));
    while (!Units.empty() && Trials < Opts.MaxTrials) {
      size_t ChunkLen = (Units.size() + N - 1) / N;
      bool Progress = false;

      auto Without = [&](size_t Lo, size_t Hi) {
        // Candidate alive-set with units [Lo, Hi) removed.
        std::vector<bool> A = Alive;
        for (size_t U = Lo; U != Hi; ++U)
          for (uint32_t Id : Units[U])
            A[Id] = false;
        return A;
      };
      auto Adopt = [&](size_t Lo, size_t Hi, std::vector<bool> A) {
        Alive = std::move(A);
        Units.erase(Units.begin() + long(Lo), Units.begin() + long(Hi));
      };

      // Reduce to chunk: drop everything but chunk C in one step.
      for (size_t C = 0; C * ChunkLen < Units.size(); ++C) {
        size_t Lo = C * ChunkLen, Hi = std::min(Lo + ChunkLen, Units.size());
        if (Lo == 0 && Hi == Units.size())
          continue; // that is the current state, not a reduction
        std::vector<bool> A = Without(0, Lo);
        for (size_t U = Hi; U != Units.size(); ++U)
          for (uint32_t Id : Units[U])
            A[Id] = false;
        if (failsWith(A)) {
          Alive = std::move(A);
          std::vector<std::vector<uint32_t>> Kept(
              Units.begin() + long(Lo), Units.begin() + long(Hi));
          Units = std::move(Kept);
          N = 2;
          Progress = true;
          break;
        }
      }
      if (Progress)
        continue;

      // Reduce to complement: drop chunk C, keep the rest.
      for (size_t C = 0; C * ChunkLen < Units.size(); ++C) {
        size_t Lo = C * ChunkLen, Hi = std::min(Lo + ChunkLen, Units.size());
        std::vector<bool> A = Without(Lo, Hi);
        if (failsWith(A)) {
          Adopt(Lo, Hi, std::move(A));
          N = std::max<size_t>(N - 1, 2);
          Progress = true;
          break;
        }
      }
      if (Progress)
        continue;

      if (N >= Units.size())
        break;
      N = std::min(N * 2, Units.size());
    }
  }

  const Module &Orig;
  const FailurePredicate &Fails;
  MinimizerOptions Opts;
  std::vector<bool> Alive;
  uint64_t Trials = 0;
};

} // namespace

MinimizeResult fuzz::minimizeModule(const Module &M,
                                    const FailurePredicate &Fails,
                                    MinimizerOptions Opts) {
  Shrinker S(M, Fails, Opts);
  MinimizeResult Out;
  Out.OriginalInstrs = S.aliveCount();

  // The failure must survive a plain clone (cloning renumbers instruction
  // ids); if it does not, minimizing would chase a phantom.
  Out.Reproduced = S.failsWith(S.Alive);
  if (Out.Reproduced) {
    S.ddmin(S.units(Shrinker::Granularity::Function));
    S.ddmin(S.units(Shrinker::Granularity::Block));
    // Instruction-granularity passes repeat to a fixpoint: removing one
    // instruction often unblocks removing another.
    for (;;) {
      uint32_t Before = S.aliveCount();
      S.ddmin(S.units(Shrinker::Granularity::Instruction));
      if (S.aliveCount() == Before || S.Trials >= Opts.MaxTrials)
        break;
    }
  }

  Out.FinalInstrs = S.aliveCount();
  Out.Trials = S.Trials;
  Out.M = S.build(S.Alive);
  return Out;
}
