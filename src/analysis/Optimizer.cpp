//===- analysis/Optimizer.cpp - Profile-guided bloat removal ---------------===//

#include "analysis/Optimizer.h"

#include "ir/Module.h"
#include "ir/Rewrite.h"

#include <vector>

using namespace lud;

OptimizeResult lud::removeProfiledDeadCode(const Module &M,
                                           const FrozenGraph &G,
                                           const DeadValueAnalysis &DV) {
  OptimizeResult Out;
  std::vector<bool> Kept(M.getNumInstrs(), true);

  // Per-instruction dead summary: executed, every node dead, and never
  // storing a reference. Reference stores build structure spine: under
  // thin slicing their values are deliberately outside value flow (base
  // pointers are not uses), so "dead" there does not mean removable.
  std::vector<bool> Executed(M.getNumInstrs(), false);
  std::vector<bool> AllDead(M.getNumInstrs(), true);
  std::vector<bool> StoredRef(M.getNumInstrs(), false);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    InstrId I = G.instr(N);
    Executed[I] = true;
    if (!DV.Dead[N])
      AllDead[I] = false;
    if (G.storedRef(N))
      StoredRef[I] = true;
  }

  // Phase 1: drop heap/static stores whose every profiled instance fed
  // only dead values. Unexecuted code is left alone (no profile evidence).
  for (InstrId I = 0; I != M.getNumInstrs(); ++I) {
    const Instruction *Inst = M.getInstr(I);
    if (!Inst->writesHeap())
      continue;
    if (Executed[I] && AllDead[I] && !StoredRef[I]) {
      Kept[I] = false;
      ++Out.Stats.RemovedStores;
    }
  }

  // Phase 2: iterative DCE over the kept set — drop pure producers whose
  // destination register is read by no kept instruction of the function.
  bool Changed = true;
  while (Changed) {
    Changed = false;
    ++Out.Stats.Iterations;
    for (const auto &F : M.functions()) {
      // Registers read by kept instructions of F.
      std::vector<bool> Used(F->getNumRegs(), false);
      std::vector<Reg> Scratch;
      for (const auto &BB : F->blocks()) {
        for (const auto &I : BB->insts()) {
          if (!Kept[I->getId()])
            continue;
          Scratch.clear();
          appendUsedRegs(*I, Scratch);
          for (Reg R : Scratch)
            if (R != kNoReg)
              Used[R] = true;
        }
      }
      for (const auto &BB : F->blocks()) {
        for (const auto &I : BB->insts()) {
          if (!Kept[I->getId()] || I->isTerminator())
            continue;
          Reg Dst = pureProducerDst(*I);
          if (Dst == kNoReg || Used[Dst])
            continue;
          Kept[I->getId()] = false;
          ++Out.Stats.RemovedPure;
          Changed = true;
        }
      }
    }
  }

  if (Out.Stats.removedTotal() == 0)
    return Out; // Nothing to drop: no derived module.
  ModuleRewriter RW(M);
  for (uint32_t Id = 0; Id != M.getNumInstrs(); ++Id)
    if (!Kept[Id])
      RW.drop(InstrId(Id));
  Out.M = RW.apply();
  return Out;
}
