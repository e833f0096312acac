//===- analysis/Passes.cpp - Evidence-gated rewrite passes ----------------===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concrete rewrite passes behind opt::PassManager. Each pass reads
/// the shared PassEvidence (UsageSummary classifications, dead-value
/// bits, per-instruction frequencies) and proposes candidate modules via
/// ModuleRewriter:
///
///   dead-stores        re-homed removeProfiledDeadCode (first and last)
///   map-to-array       linear lower-bound scans over build-once-read-many
///                      arrays become binary searches (derby's page index)
///   clone-per-op       loop-invariant fresh-structure call chains are
///                      hoisted; clone-then-update callees specialize to
///                      in-place variants (sunflow's Matrix chain)
///   once-read-memo     loads of once-read memo tables recompute the pure
///                      value chain locally, stranding the table for the
///                      final dead-store sweep (sunflow's bits cache)
///
/// The static matchers here are *filters*, not proofs: every candidate is
/// validated output-preserving by the PassManager on both engines before
/// it commits, and the fuzzer's `optimize` oracle mode replays the same
/// contract over random programs.
///
//===----------------------------------------------------------------------===//

#include "analysis/PassManager.h"

#include "analysis/Optimizer.h"
#include "ir/Clone.h"
#include "ir/Module.h"
#include "ir/Rewrite.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

using namespace lud;
using namespace lud::opt;

namespace {

std::string itos(uint64_t V) { return std::to_string(V); }

//===----------------------------------------------------------------------===//
// FuncIndex: register defs, use counts and the block predecessor map for
// one function — the substrate every matcher below queries.
//===----------------------------------------------------------------------===//

struct FuncIndex {
  const Function &F;
  std::vector<std::vector<Instruction *>> Defs; // per register
  std::vector<uint32_t> Uses;                   // reads per register
  std::vector<std::vector<uint32_t>> Preds;     // per block

  explicit FuncIndex(const Function &Fn) : F(Fn) {
    Defs.resize(Fn.getNumRegs());
    Uses.assign(Fn.getNumRegs(), 0);
    Preds.resize(Fn.blocks().size());
    std::vector<Reg> Tmp;
    for (const auto &BB : Fn.blocks()) {
      for (const auto &I : BB->insts()) {
        Reg D = definedReg(*I);
        if (D != kNoReg && D < Defs.size())
          Defs[D].push_back(I.get());
        Tmp.clear();
        appendUsedRegs(*I, Tmp);
        for (Reg R : Tmp)
          if (R < Uses.size())
            ++Uses[R];
      }
      Instruction *T = BB->terminator();
      if (auto *Br = dyn_cast<BrInst>(T)) {
        Preds[Br->Target].push_back(BB->getId());
      } else if (auto *CB = dyn_cast<CondBrInst>(T)) {
        Preds[CB->TrueBlock].push_back(BB->getId());
        if (CB->FalseBlock != CB->TrueBlock)
          Preds[CB->FalseBlock].push_back(BB->getId());
      }
    }
  }

  Instruction *uniqueDef(Reg R) const {
    return R != kNoReg && R < Defs.size() && Defs[R].size() == 1
               ? Defs[R].front()
               : nullptr;
  }

  bool definedInBlock(Reg R, const BasicBlock *BB) const {
    if (R == kNoReg || R >= Defs.size())
      return false;
    for (Instruction *I : Defs[R])
      if (I->getParent() == BB)
        return true;
    return false;
  }
};

bool readsRegister(const Instruction &I, Reg R) {
  std::vector<Reg> Tmp;
  appendUsedRegs(I, Tmp);
  return std::find(Tmp.begin(), Tmp.end(), R) != Tmp.end();
}

int positionInBlock(const Instruction *I) {
  const BasicBlock *BB = I->getParent();
  for (size_t P = 0; P != BB->insts().size(); ++P)
    if (BB->insts()[P].get() == I)
      return int(P);
  return -1;
}

/// Execution count of a block, reconstructed from Gcost. Calls, plain
/// branches and returns-of-nothing never become graph nodes, so their
/// InstrFreq entries are 0; any value-producing or predicate instruction
/// in the block runs exactly once per block execution and carries the
/// real count.
uint64_t blockFreq(const BasicBlock &BB, const std::vector<uint64_t> &Freq) {
  uint64_t Out = 0;
  for (const auto &I : BB.insts())
    Out = std::max(Out, Freq[I->getId()]);
  return Out;
}

/// The loop entry both loop matchers demand: header \p H has exactly two
/// predecessors, the backedge from \p Latch and a preheader ending in a
/// plain `br H`. Returns the preheader's br, or null.
BrInst *preheaderBr(const Function &F, const FuncIndex &IX, uint32_t H,
                    uint32_t Latch) {
  if (IX.Preds[H].size() != 2)
    return nullptr;
  uint32_t PreId = IX.Preds[H][0] == Latch ? IX.Preds[H][1] : IX.Preds[H][0];
  if (PreId == Latch)
    return nullptr;
  auto *PreBr = dyn_cast<BrInst>(F.getBlock(PreId)->terminator());
  return PreBr && PreBr->Target == H ? PreBr : nullptr;
}

/// The evidence both clone-per-op strategies cite: the first allocation
/// site classified clone-per-op for which \p InScope(alloc, owner) holds,
/// as "<site> (instances=N, writes=W, reads=R)"; empty when none does.
template <class Pred>
std::string clonePerOpEvidence(const Module &M, const PassEvidence &E,
                               Pred InScope) {
  for (AllocSiteId S = 0; S != M.getNumAllocSites(); ++S) {
    const UsageSummary *U = E.usage().bySite(S);
    if (!U || U->Kind != UsageKind::ClonePerOp)
      continue;
    const Instruction *AI = M.getAllocSite(S);
    if (InScope(*AI, M.getInstrFunction(AI->getId())))
      return U->Description + " (instances=" + itos(U->Instances) +
             ", writes=" + itos(U->Writes) + ", reads=" + itos(U->Reads) +
             ")";
  }
  return {};
}

/// A pass named by its pass-table entry.
class NamedPass : public RewritePass {
public:
  explicit NamedPass(const char *Name) : Name(Name) {}
  const char *name() const override { return Name.c_str(); }

protected:
  std::string Name;
};

//===----------------------------------------------------------------------===//
// dead-stores: removeProfiledDeadCode re-homed as the first and last
// pipeline pass.
//===----------------------------------------------------------------------===//

class DeadStorePass : public NamedPass {
public:
  using NamedPass::NamedPass;

  std::optional<RewriteCandidate> next(const PassEvidence &E) override {
    // Evidence only refreshes when a candidate commits. If we already
    // proposed against this snapshot (rolled back, or a commit that left
    // the executed-instruction count unchanged), stop instead of
    // re-proposing the identical module forever.
    if (Proposed && LastExec == E.ExecutedInstrs)
      return std::nullopt;
    OptimizeResult R = removeProfiledDeadCode(*E.M, *E.G, *E.DV);
    if (R.Stats.removedTotal() == 0)
      return std::nullopt;
    Proposed = true;
    LastExec = E.ExecutedInstrs;
    RewriteCandidate C;
    C.M = std::move(R.M);
    C.Target = Name + "#" + itos(Round++);
    C.Rationale = "profiled-dead sweep: " + itos(R.Stats.RemovedStores) +
                  " dead stores + " + itos(R.Stats.RemovedPure) +
                  " unread pure producers (" + itos(R.Stats.Iterations) +
                  " DCE rounds over " + itos(E.ExecutedInstrs) +
                  " executed instrs)";
    C.RemovedStores = R.Stats.RemovedStores;
    C.RemovedPure = R.Stats.RemovedPure;
    return C;
  }

private:
  uint64_t Round = 0;
  uint64_t LastExec = 0;
  bool Proposed = false;
};

//===----------------------------------------------------------------------===//
// map-to-array: a linear lower-bound scan over a sorted array whose site
// is classified build-once-read-many becomes a call to a synthesized
// binary search. Matches the canonical shape
//
//   pre:    ... ; br header
//   header: if (pos < size) goto scan else exit      (sole instruction)
//   scan:   at = base[pos]; if (at < key) goto step else exit
//   step:   pos = pos + 1; br header
//
// and replaces pre's terminator with `pos = lud.lowerBound(base, size,
// key, pos); br exit`, leaving the scan blocks unreachable.
//===----------------------------------------------------------------------===//

constexpr const char *LowerBoundName = "lud.lowerBound";

/// lud.lowerBound(a, size, key, lo): first index in [lo, size) whose
/// element is >= key — exactly what the linear scan computes when the
/// array is sorted (validation catches unsorted data).
void emitLowerBound(Module &Out) {
  Function *F = Out.addFunction(LowerBoundName, 4, 9);
  BasicBlock *Entry = F->addBlock();
  BasicBlock *Head = F->addBlock();
  BasicBlock *Body = F->addBlock();
  BasicBlock *Left = F->addBlock();
  BasicBlock *Right = F->addBlock();
  BasicBlock *Exit = F->addBlock();
  const Reg A = 0, Size = 1, Key = 2, Lo = 3, One = 4, Hi = 5, T = 6, Mid = 7,
            At = 8;
  Entry->append(ConstInst::makeInt(One, 1));
  Entry->append(new AssignInst(Hi, Size));
  Entry->append(new BrInst(Head->getId()));
  Head->append(new CondBrInst(CmpOp::Lt, Lo, Hi, Body->getId(), Exit->getId()));
  Body->append(new BinInst(BinOp::Add, T, Lo, Hi));
  Body->append(new BinInst(BinOp::Shr, Mid, T, One));
  Body->append(new LoadElemInst(At, A, Mid));
  Body->append(
      new CondBrInst(CmpOp::Lt, At, Key, Left->getId(), Right->getId()));
  Left->append(new BinInst(BinOp::Add, Lo, Mid, One));
  Left->append(new BrInst(Head->getId()));
  Right->append(new AssignInst(Hi, Mid));
  Right->append(new BrInst(Head->getId()));
  Exit->append(new ReturnInst(Lo));
}
constexpr size_t LowerBoundInstrs = 13;

struct ScanLoop {
  uint32_t Header = 0, Exit = 0;
  Instruction *PreBr = nullptr; // the preheader's br into the scan
  Instruction *Load = nullptr;  // the probe
  Reg Pos = kNoReg, Size = kNoReg, Key = kNoReg, Base = kNoReg;
  AllocSiteId Site = kNoAllocSite;
  uint64_t Probes = 0, Lookups = 0;
};

std::optional<ScanLoop> matchScanLoop(const Function &F, const FuncIndex &IX,
                                      uint32_t H, const PassEvidence &E) {
  const BasicBlock *HB = F.getBlock(H);
  if (HB->insts().size() != 1)
    return std::nullopt;
  auto *HBr = dyn_cast<CondBrInst>(HB->terminator());
  if (!HBr || HBr->Cmp != CmpOp::Lt)
    return std::nullopt;
  Reg Pos = HBr->Lhs, Size = HBr->Rhs;
  uint32_t ScanId = HBr->TrueBlock, ExitId = HBr->FalseBlock;
  if (ScanId == H || ExitId == H || ScanId == ExitId)
    return std::nullopt;

  const BasicBlock *SB = F.getBlock(ScanId);
  if (SB->insts().size() != 2)
    return std::nullopt;
  auto *Load = dyn_cast<LoadElemInst>(SB->insts().front().get());
  auto *SBr = dyn_cast<CondBrInst>(SB->terminator());
  if (!Load || !SBr || SBr->Cmp != CmpOp::Lt)
    return std::nullopt;
  if (Load->Index != Pos || SBr->Lhs != Load->Dst || SBr->FalseBlock != ExitId)
    return std::nullopt;
  Reg Key = SBr->Rhs, Base = Load->Base, At = Load->Dst;
  if (At == Pos || At == Key || At == Size || At == Base)
    return std::nullopt;
  uint32_t StepId = SBr->TrueBlock;
  if (StepId == H || StepId == ScanId || StepId == ExitId)
    return std::nullopt;

  const BasicBlock *Step = F.getBlock(StepId);
  if (Step->insts().size() != 2)
    return std::nullopt;
  auto *Inc = dyn_cast<BinInst>(Step->insts().front().get());
  auto *StepBr = dyn_cast<BrInst>(Step->terminator());
  if (!Inc || !StepBr || StepBr->Target != H)
    return std::nullopt;
  if (Inc->Op != BinOp::Add || Inc->Dst != Pos || Inc->Lhs != Pos)
    return std::nullopt;
  Instruction *OneDef = IX.uniqueDef(Inc->Rhs);
  auto *OneC = OneDef ? dyn_cast<ConstInst>(OneDef) : nullptr;
  if (!OneC || OneC->Lit != ConstInst::LitKind::Int || OneC->IntVal != 1)
    return std::nullopt;

  // Loop structure: scan and step are private to the loop, entered from
  // one preheader.
  if (IX.Preds[ScanId].size() != 1 || IX.Preds[StepId].size() != 1)
    return std::nullopt;
  BrInst *PreBr = preheaderBr(F, IX, H, StepId);
  if (!PreBr)
    return std::nullopt;

  // The probe result feeds only the comparison; the cursor is the only
  // register the loop redefines; everything else is invariant inside it.
  if (IX.Uses[At] != 1 || IX.Defs[At].size() != 1)
    return std::nullopt;
  const BasicBlock *LoopBlocks[3] = {HB, SB, Step};
  for (const BasicBlock *LB : LoopBlocks)
    if (IX.definedInBlock(Size, LB) || IX.definedInBlock(Key, LB) ||
        IX.definedInBlock(Base, LB) || IX.definedInBlock(Inc->Rhs, LB))
      return std::nullopt;
  for (Instruction *D : IX.Defs[Pos])
    if (D != Inc && (D->getParent() == HB || D->getParent() == SB ||
                     D->getParent() == Step))
      return std::nullopt;

  // Evidence gates: the array is a build-once-read-many structure and
  // the scan probes enough to make a binary search worthwhile.
  Instruction *BaseDef = IX.uniqueDef(Base);
  auto *AA = BaseDef ? dyn_cast<AllocArrayInst>(BaseDef) : nullptr;
  if (!AA)
    return std::nullopt;
  const UsageSummary *U = E.usage().bySite(AA->Site);
  if (!U || U->Kind != UsageKind::BuildOnceReadMany)
    return std::nullopt;
  uint64_t Probes = (*E.InstrFreq)[Load->getId()];
  // The preheader's terminator is a plain Br (no Gcost node); the block's
  // other instructions carry its execution count.
  uint64_t Lookups = blockFreq(*PreBr->getParent(), *E.InstrFreq);
  if (Probes < 8 || Probes < 4 * std::max<uint64_t>(1, Lookups))
    return std::nullopt;

  ScanLoop S;
  S.Header = H;
  S.Exit = ExitId;
  S.PreBr = PreBr;
  S.Load = Load;
  S.Pos = Pos;
  S.Size = Size;
  S.Key = Key;
  S.Base = Base;
  S.Site = AA->Site;
  S.Probes = Probes;
  S.Lookups = Lookups;
  return S;
}

class MapToArrayPass : public NamedPass {
public:
  using NamedPass::NamedPass;

  std::optional<RewriteCandidate> next(const PassEvidence &E) override {
    for (const auto &FP : E.M->functions()) {
      if (!FP || FP->blocks().empty())
        continue;
      FuncIndex IX(*FP);
      for (uint32_t H = 0; H != FP->blocks().size(); ++H) {
        std::string Target = Name + " " + FP->getName() + "#b" + itos(H);
        if (E.Attempted->count(Target))
          continue;
        std::optional<ScanLoop> S = matchScanLoop(*FP, IX, H, E);
        if (!S)
          continue;

        ModuleRewriter RW(*E.M);
        FuncId LB = E.M->findFunction(LowerBoundName);
        size_t Synth = 0;
        if (LB == kNoFunc) {
          LB = RW.addFunction(emitLowerBound);
          Synth = LowerBoundInstrs;
        }
        RW.replaceWith(S->PreBr->getId(),
                       {CallInst::makeDirect(S->Pos, LB,
                                             {S->Base, S->Size, S->Key, S->Pos}),
                        new BrInst(S->Exit)});

        const UsageSummary *U = E.usage().bySite(S->Site);
        RewriteCandidate C;
        C.M = RW.apply();
        C.Target = std::move(Target);
        C.Rationale =
            "build-once-read-many array " + U->Description +
            " (writes=" + itos(U->Writes) + ", reads=" + itos(U->Reads) +
            ", read-after-last-write=" + itos(U->ReadsAfterLastWrite) +
            "): linear scan probed " + itos(S->Probes) + "x across " +
            itos(S->Lookups) + " lookups; replaced with binary search (" +
            LowerBoundName + ")";
        C.RewrittenInstrs = 2 + Synth;
        return C;
      }
    }
    return std::nullopt;
  }
};

//===----------------------------------------------------------------------===//
// Interprocedural freshness summaries shared by the clone-per-op
// strategies: which functions write only structures they (transitively)
// allocated or that arrive through specific parameters, and what their
// return value is.
//===----------------------------------------------------------------------===//

/// Abstract provenance of one register's value.
struct AbsVal {
  enum K : uint8_t { Bottom, Fresh, Param, Other } Kind = Bottom;
  unsigned P = 0;
  static AbsVal fresh() { return {Fresh, 0}; }
  static AbsVal param(unsigned P) { return {Param, P}; }
  static AbsVal other() { return {Other, 0}; }
  bool operator==(const AbsVal &O) const {
    return Kind == O.Kind && (Kind != Param || P == O.P);
  }
};

AbsVal joinAV(AbsVal A, AbsVal B) {
  if (A.Kind == AbsVal::Bottom)
    return B;
  if (B.Kind == AbsVal::Bottom)
    return A;
  return A == B ? A : AbsVal::other();
}

struct FnSummary {
  /// Writes somewhere it cannot prove fresh or parameter-derived
  /// (statics, natives, virtual calls, unknown bases).
  bool Impure = false;
  /// Parameters the function may write through (directly or via callees).
  uint32_t WriteParams = 0;
  enum RetKind : uint8_t { RetFresh, RetParam, RetOther } Ret = RetFresh;
  unsigned RetP = 0;

  bool operator==(const FnSummary &O) const {
    return Impure == O.Impure && WriteParams == O.WriteParams &&
           Ret == O.Ret && (Ret != RetParam || RetP == O.RetP);
  }
};

std::vector<AbsVal> computeAbsVals(const Function &F,
                                   const std::vector<FnSummary> &Sums) {
  std::vector<AbsVal> AV(F.getNumRegs());
  for (unsigned I = 0; I != F.getNumParams() && I < AV.size(); ++I)
    AV[I] = AbsVal::param(I);
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (const auto &BB : F.blocks())
      for (const auto &IP : BB->insts()) {
        const Instruction &I = *IP;
        Reg D = definedReg(I);
        if (D == kNoReg || D >= AV.size())
          continue;
        AbsVal V = AbsVal::other();
        switch (I.getKind()) {
        case Instruction::Kind::Alloc:
        case Instruction::Kind::AllocArray:
          V = AbsVal::fresh();
          break;
        case Instruction::Kind::Assign:
          V = AV[cast<AssignInst>(&I)->Src];
          break;
        // Components of a fresh structure are fresh; components of a
        // parameter belong to that parameter. (Optimistic for refs a
        // callee stored across the boundary — the differential
        // validation is the backstop, as for every pass decision.)
        case Instruction::Kind::LoadField: {
          AbsVal B = AV[cast<LoadFieldInst>(&I)->Base];
          V = B.Kind == AbsVal::Fresh || B.Kind == AbsVal::Param
                  ? B
                  : AbsVal::other();
          break;
        }
        case Instruction::Kind::LoadElem: {
          AbsVal B = AV[cast<LoadElemInst>(&I)->Base];
          V = B.Kind == AbsVal::Fresh || B.Kind == AbsVal::Param
                  ? B
                  : AbsVal::other();
          break;
        }
        case Instruction::Kind::Call: {
          const auto *C = cast<CallInst>(&I);
          if (!C->isVirtual() && C->Callee != kNoFunc &&
              C->Callee < Sums.size()) {
            const FnSummary &S = Sums[C->Callee];
            if (S.Ret == FnSummary::RetFresh)
              V = AbsVal::fresh();
            else if (S.Ret == FnSummary::RetParam && S.RetP < C->Args.size())
              V = AV[C->Args[S.RetP]];
          }
          break;
        }
        default:
          break; // consts, arithmetic, lengths: scalars
        }
        AbsVal J = joinAV(AV[D], V);
        if (!(J == AV[D])) {
          AV[D] = J;
          Changed = true;
        }
      }
  }
  return AV;
}

FnSummary deriveSummary(const Function &F,
                        const std::vector<FnSummary> &Sums) {
  std::vector<AbsVal> AV = computeAbsVals(F, Sums);
  FnSummary Out;
  AbsVal Ret;
  bool RetVoid = false;
  auto Written = [&](AbsVal B) {
    if (B.Kind == AbsVal::Fresh)
      return;
    if (B.Kind == AbsVal::Param && B.P < 32) {
      Out.WriteParams |= 1u << B.P;
      return;
    }
    Out.Impure = true;
  };
  for (const auto &BB : F.blocks())
    for (const auto &IP : BB->insts()) {
      const Instruction &I = *IP;
      switch (I.getKind()) {
      case Instruction::Kind::StoreField:
        Written(AV[cast<StoreFieldInst>(&I)->Base]);
        break;
      case Instruction::Kind::StoreElem:
        Written(AV[cast<StoreElemInst>(&I)->Base]);
        break;
      case Instruction::Kind::StoreStatic:
      case Instruction::Kind::NativeCall:
        Out.Impure = true;
        break;
      case Instruction::Kind::Call: {
        const auto *C = cast<CallInst>(&I);
        if (C->isVirtual() || C->Callee == kNoFunc ||
            C->Callee >= Sums.size()) {
          Out.Impure = true;
          break;
        }
        const FnSummary &S = Sums[C->Callee];
        Out.Impure |= S.Impure;
        for (unsigned P = 0; P != 32; ++P)
          if (S.WriteParams & (1u << P)) {
            if (P >= C->Args.size())
              Out.Impure = true;
            else
              Written(AV[C->Args[P]]);
          }
        break;
      }
      case Instruction::Kind::Return: {
        Reg Src = cast<ReturnInst>(&I)->Src;
        if (Src == kNoReg || Src >= AV.size())
          RetVoid = true;
        else
          Ret = joinAV(Ret, AV[Src]);
        break;
      }
      default:
        break;
      }
    }
  if (RetVoid || Ret.Kind == AbsVal::Other || Ret.Kind == AbsVal::Bottom)
    Out.Ret = FnSummary::RetOther;
  else if (Ret.Kind == AbsVal::Fresh)
    Out.Ret = FnSummary::RetFresh;
  else {
    Out.Ret = FnSummary::RetParam;
    Out.RetP = Ret.P;
  }
  return Out;
}

std::vector<FnSummary> summarizeFunctions(const Module &M) {
  std::vector<FnSummary> Sums(M.functions().size());
  // Optimistic fixpoint: summaries only degrade, so iteration converges;
  // each sweep propagates callee facts one call-graph level further.
  unsigned MaxIter = unsigned(M.functions().size()) + 4;
  for (unsigned Iter = 0; Iter != MaxIter; ++Iter) {
    bool Changed = false;
    for (const auto &FP : M.functions()) {
      if (!FP)
        continue;
      FnSummary S;
      if (FP->blocks().empty()) {
        S.Impure = true;
        S.Ret = FnSummary::RetOther;
      } else {
        S = deriveSummary(*FP, Sums);
      }
      if (!(S == Sums[FP->getId()])) {
        Sums[FP->getId()] = S;
        Changed = true;
      }
    }
    if (!Changed)
      return Sums;
  }
  for (auto &S : Sums) {
    S.Impure = true;
    S.Ret = FnSummary::RetOther;
  }
  return Sums;
}

//===----------------------------------------------------------------------===//
// clone-per-op, strategy 1: hoist a loop-invariant fresh-structure call
// chain out of a single-block loop. The chain may only write structures
// it allocated itself (per the summaries), the residual body must be
// register-only, and a clone-per-op-classified allocation site must back
// the chain as evidence.
//===----------------------------------------------------------------------===//

struct HoistMatch {
  const Function *F = nullptr;
  uint32_t Header = 0;
  Instruction *PreTerm = nullptr;
  std::vector<const Instruction *> Hoisted; // body order
  size_t Calls = 0;
  uint64_t Iters = 0, Entries = 0;
  std::string SiteEvidence;
};

std::optional<HoistMatch> matchHoist(const Module &M, const Function &F,
                                     const FuncIndex &IX, uint32_t H,
                                     const std::vector<FnSummary> &Sums,
                                     const PassEvidence &E) {
  const BasicBlock *HB = F.getBlock(H);
  if (HB->insts().size() != 1)
    return std::nullopt;
  auto *HBr = dyn_cast<CondBrInst>(HB->terminator());
  if (!HBr)
    return std::nullopt;

  // Single-block body branching straight back, one preheader.
  auto BodyLike = [&](uint32_t B) {
    if (B == H || B >= F.blocks().size())
      return false;
    auto *T = dyn_cast<BrInst>(F.getBlock(B)->terminator());
    return T && T->Target == H && IX.Preds[B].size() == 1 &&
           IX.Preds[B][0] == H;
  };
  uint32_t BodyId;
  if (BodyLike(HBr->TrueBlock))
    BodyId = HBr->TrueBlock;
  else if (BodyLike(HBr->FalseBlock))
    BodyId = HBr->FalseBlock;
  else
    return std::nullopt;
  BrInst *PreBr = preheaderBr(F, IX, H, BodyId);
  if (!PreBr)
    return std::nullopt;

  const BasicBlock *BB = F.getBlock(BodyId);
  const auto &Insts = BB->insts();
  size_t N = Insts.size();
  if (N < 2)
    return std::nullopt;

  // Positions of registers defined in the body (-2 = multiply defined).
  std::map<Reg, int> DefPos;
  for (size_t I = 0; I + 1 < N; ++I) {
    Reg D = definedReg(*Insts[I]);
    if (D == kNoReg)
      continue;
    auto R = DefPos.emplace(D, int(I));
    if (!R.second)
      R.first->second = -2;
  }

  std::vector<char> Hoist(N, 0);
  // Closure-local freshness: is this register a structure the hoisted
  // chain itself allocates? (Needed to pass fresh args into callees that
  // write through parameters.)
  std::function<bool(Reg)> FreshLocal = [&](Reg R) -> bool {
    auto It = DefPos.find(R);
    if (It == DefPos.end() || It->second < 0 || !Hoist[It->second])
      return false;
    const Instruction &DI = *Insts[It->second];
    switch (DI.getKind()) {
    case Instruction::Kind::Alloc:
    case Instruction::Kind::AllocArray:
      return true;
    case Instruction::Kind::Assign:
      return FreshLocal(cast<AssignInst>(&DI)->Src);
    case Instruction::Kind::Call: {
      const auto *C = cast<CallInst>(&DI);
      if (C->isVirtual() || C->Callee == kNoFunc || C->Callee >= Sums.size())
        return false;
      const FnSummary &S = Sums[C->Callee];
      if (S.Ret == FnSummary::RetFresh)
        return true;
      if (S.Ret == FnSummary::RetParam && S.RetP < C->Args.size())
        return FreshLocal(C->Args[S.RetP]);
      return false;
    }
    default:
      return false;
    }
  };
  auto Invariant = [&](Reg R, size_t I) {
    auto It = DefPos.find(R);
    if (It == DefPos.end())
      return true; // defined outside the body
    return It->second >= 0 && size_t(It->second) < I && Hoist[It->second];
  };

  std::vector<Reg> Tmp;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (size_t I = 0; I + 1 < N; ++I) {
      if (Hoist[I])
        continue;
      const Instruction &Ins = *Insts[I];
      Reg D = definedReg(Ins);
      if (D != kNoReg) {
        auto It = DefPos.find(D);
        if (It == DefPos.end() || It->second != int(I))
          continue; // multiply defined in the body
      }
      Tmp.clear();
      appendUsedRegs(Ins, Tmp);
      bool Ops = true;
      for (Reg R : Tmp)
        Ops = Ops && Invariant(R, I);
      if (!Ops)
        continue;
      bool OK = false;
      switch (Ins.getKind()) {
      case Instruction::Kind::Const:
      case Instruction::Kind::Assign:
      case Instruction::Kind::Bin:
      case Instruction::Kind::Un:
      case Instruction::Kind::Alloc:
      case Instruction::Kind::AllocArray:
        OK = true;
        break;
      case Instruction::Kind::Call: {
        const auto *C = cast<CallInst>(&Ins);
        if (C->isVirtual() || C->Callee == kNoFunc ||
            C->Callee >= Sums.size())
          break;
        const FnSummary &S = Sums[C->Callee];
        if (S.Impure)
          break;
        OK = true;
        for (unsigned P = 0; P != 32 && OK; ++P)
          if (S.WriteParams & (1u << P))
            OK = P < C->Args.size() && FreshLocal(C->Args[P]);
        break;
      }
      default:
        break; // loads and stores stay in the loop
      }
      if (OK) {
        Hoist[I] = 1;
        Changed = true;
      }
    }
  }

  size_t NumCalls = 0;
  std::vector<const Instruction *> Hoisted;
  for (size_t I = 0; I + 1 < N; ++I) {
    if (!Hoist[I])
      continue;
    Hoisted.push_back(Insts[I].get());
    if (dyn_cast<CallInst>(Insts[I].get()))
      ++NumCalls;
  }
  if (NumCalls == 0)
    return std::nullopt;

  // The residual loop must be register-only: with no calls and no heap
  // writes left inside, nothing can perturb what the chain read, so its
  // per-iteration results were invariant.
  for (size_t I = 0; I + 1 < N; ++I) {
    if (Hoist[I])
      continue;
    const Instruction &Ins = *Insts[I];
    if (Ins.writesHeap() || isa<CallInst>(&Ins) || isa<NativeCallInst>(&Ins))
      return std::nullopt;
  }
  // The preheader copy must not change what iteration 1 reads: no
  // residual use of a hoisted definition before its body position, and
  // the header test must not read one at all.
  for (size_t I = 0; I + 1 < N; ++I) {
    if (!Hoist[I])
      continue;
    Reg D = definedReg(*Insts[I]);
    if (D == kNoReg)
      continue;
    if (readsRegister(*HB->terminator(), D))
      return std::nullopt;
    for (size_t J = 0; J < I; ++J)
      if (!Hoist[J] && readsRegister(*Insts[J], D))
        return std::nullopt;
  }

  // Profit gate: the loop actually spun. The trip count comes from the
  // body block (call instructions alone carry no Gcost frequency, but the
  // body always holds at least the residual computation); the header's
  // CondBr runs trips + entries times.
  uint64_t TripFreq = blockFreq(*BB, *E.InstrFreq);
  uint64_t HFreq = (*E.InstrFreq)[HB->terminator()->getId()];
  if (TripFreq == 0 && HFreq > 1)
    TripFreq = HFreq - 1; // all-call body: assume a single loop entry
  uint64_t Entries = HFreq > TripFreq ? HFreq - TripFreq : 1;
  if (TripFreq < 8 || TripFreq < 4 * std::max<uint64_t>(1, Entries))
    return std::nullopt;

  // Evidence gate: a clone-per-op-classified allocation site inside the
  // hoisted chain (or its transitive callees) backs the rewrite.
  std::set<FuncId> Closure;
  std::vector<FuncId> Work;
  for (const Instruction *Ins : Hoisted)
    if (auto *C = dyn_cast<CallInst>(Ins))
      Work.push_back(C->Callee);
  while (!Work.empty()) {
    FuncId Fn = Work.back();
    Work.pop_back();
    if (Fn == kNoFunc || !Closure.insert(Fn).second)
      continue;
    const Function *F2 = M.getFunction(Fn);
    for (const auto &B2 : F2->blocks())
      for (const auto &I2 : B2->insts())
        if (auto *C2 = dyn_cast<CallInst>(I2.get()))
          if (!C2->isVirtual())
            Work.push_back(C2->Callee);
  }
  std::string Evidence = clonePerOpEvidence(
      M, E, [&](const Instruction &AI, const Function *Owner) {
        return (Owner && Closure.count(Owner->getId())) ||
               (AI.getParent() == BB &&
                std::find(Hoisted.begin(), Hoisted.end(), &AI) !=
                    Hoisted.end());
      });
  if (Evidence.empty())
    return std::nullopt;

  HoistMatch R;
  R.F = &F;
  R.Header = H;
  R.PreTerm = PreBr;
  R.Hoisted = std::move(Hoisted);
  R.Calls = NumCalls;
  R.Iters = TripFreq;
  R.Entries = Entries;
  R.SiteEvidence = std::move(Evidence);
  return R;
}

//===----------------------------------------------------------------------===//
// clone-per-op, strategy 2: specialize a clone-then-update callee to
// update in place. Matches callees whose entry starts with
// `t = clone(param0)`, whose every heap access stays inside t's
// components, whose element stores are same-index updates, and which
// return t — then redirects one call site at a time to a synthesized
// `<callee>_inplace` that aliases t to the receiver instead of cloning.
//===----------------------------------------------------------------------===//

struct InPlaceCallee {
  const Function *F2 = nullptr;
  const CallInst *CloneCall = nullptr;
  std::string CloneDesc; // clone-per-op site evidence, empty if none
};

std::optional<InPlaceCallee> matchInPlaceCallee(const Module &M,
                                                const Function &F2,
                                                const FuncIndex &IX,
                                                const std::vector<FnSummary> &Sums,
                                                const PassEvidence &E) {
  if (F2.blocks().empty() || F2.getNumParams() < 1)
    return std::nullopt;
  const auto &EIn = F2.entry()->insts();
  if (EIn.empty())
    return std::nullopt;
  const auto *CC = dyn_cast<CallInst>(EIn.front().get());
  if (!CC || CC->isVirtual() || CC->Callee == kNoFunc || CC->Dst == kNoReg ||
      CC->Dst == 0)
    return std::nullopt;
  if (CC->Args.size() != 1 || CC->Args[0] != 0)
    return std::nullopt;
  if (CC->Callee >= Sums.size())
    return std::nullopt;
  const FnSummary &G = Sums[CC->Callee];
  if (G.Impure || G.WriteParams != 0 || G.Ret != FnSummary::RetFresh)
    return std::nullopt;
  Reg T = CC->Dst;
  // The receiver is consumed exactly once — by the clone.
  if (IX.Uses.size() == 0 || IX.Uses[0] != 1)
    return std::nullopt;

  // Grow the clone-component set from t.
  std::vector<char> Comp(F2.getNumRegs(), 0);
  Comp[T] = 1;
  bool Grew = true;
  while (Grew) {
    Grew = false;
    for (const auto &BB : F2.blocks())
      for (const auto &IP : BB->insts()) {
        Reg D = kNoReg, B = kNoReg;
        if (auto *A = dyn_cast<AssignInst>(IP.get())) {
          D = A->Dst;
          B = A->Src;
        } else if (auto *L = dyn_cast<LoadFieldInst>(IP.get())) {
          D = L->Dst;
          B = L->Base;
        } else if (auto *L = dyn_cast<LoadElemInst>(IP.get())) {
          D = L->Dst;
          B = L->Base;
        }
        if (D != kNoReg && B != kNoReg && Comp[B] && !Comp[D]) {
          Comp[D] = 1;
          Grew = true;
        }
      }
  }

  // Every heap access stays inside the clone; element stores are
  // same-index updates (`t.arr[i] = f(t.arr[i], invariants)`), so
  // applying them to the receiver instead of a copy is order-safe.
  size_t Stores = 0;
  for (const auto &BB : F2.blocks())
    for (const auto &IP : BB->insts()) {
      const Instruction &I = *IP;
      switch (I.getKind()) {
      case Instruction::Kind::Call:
        if (&I != CC)
          return std::nullopt;
        break;
      case Instruction::Kind::NativeCall:
      case Instruction::Kind::StoreStatic:
      case Instruction::Kind::LoadStatic:
      case Instruction::Kind::StoreField:
        return std::nullopt;
      case Instruction::Kind::LoadField:
        if (!Comp[cast<LoadFieldInst>(&I)->Base])
          return std::nullopt;
        break;
      case Instruction::Kind::ArrayLen:
        if (!Comp[cast<ArrayLenInst>(&I)->Base])
          return std::nullopt;
        break;
      case Instruction::Kind::LoadElem:
        if (!Comp[cast<LoadElemInst>(&I)->Base])
          return std::nullopt;
        break;
      case Instruction::Kind::StoreElem: {
        const auto *SE = cast<StoreElemInst>(&I);
        if (!Comp[SE->Base])
          return std::nullopt;
        // Source must be a shallow pure function of the same slot's old
        // value (loaded earlier in this block, slot registers untouched
        // in between) and loop-invariant scalars.
        int SEPos = positionInBlock(SE);
        std::function<bool(Reg, int)> Chain = [&](Reg R, int Depth) -> bool {
          if (Depth > 8)
            return false;
          if (R == SE->Index)
            return true;
          if (R < F2.getNumParams() && R != 0)
            return true;
          Instruction *DI = IX.uniqueDef(R);
          if (!DI)
            return false;
          switch (DI->getKind()) {
          case Instruction::Kind::Const:
            return true;
          case Instruction::Kind::Assign:
            return Chain(cast<AssignInst>(DI)->Src, Depth + 1);
          case Instruction::Kind::Bin:
            return Chain(cast<BinInst>(DI)->Lhs, Depth + 1) &&
                   Chain(cast<BinInst>(DI)->Rhs, Depth + 1);
          case Instruction::Kind::Un:
            return Chain(cast<UnInst>(DI)->Src, Depth + 1);
          case Instruction::Kind::LoadElem: {
            const auto *L = cast<LoadElemInst>(DI);
            if (L->Base != SE->Base || L->Index != SE->Index ||
                L->getParent() != SE->getParent())
              return false;
            int LPos = positionInBlock(L);
            if (LPos < 0 || LPos >= SEPos)
              return false;
            // Nothing between the load and the store may write the heap
            // or redefine the slot registers.
            for (int P = LPos + 1; P < SEPos; ++P) {
              const Instruction &Mid = *SE->getParent()->insts()[P];
              if (Mid.writesHeap())
                return false;
              Reg MD = definedReg(Mid);
              if (MD == SE->Index || MD == SE->Base)
                return false;
            }
            return true;
          }
          default:
            return false;
          }
        };
        if (!Chain(SE->Src, 0))
          return std::nullopt;
        ++Stores;
        break;
      }
      case Instruction::Kind::Return:
        if (cast<ReturnInst>(&I)->Src != T)
          return std::nullopt;
        break;
      default:
        break;
      }
    }
  if (Stores == 0)
    return std::nullopt;

  InPlaceCallee R;
  R.F2 = &F2;
  R.CloneCall = CC;
  R.CloneDesc = clonePerOpEvidence(
      M, E, [&](const Instruction &, const Function *Owner) {
        return Owner && Owner->getId() == CC->Callee;
      });
  return R;
}

class ClonePerOpPass : public NamedPass {
public:
  using NamedPass::NamedPass;

  std::optional<RewriteCandidate> next(const PassEvidence &E) override {
    const Module &M = *E.M;
    std::vector<FnSummary> Sums = summarizeFunctions(M);

    // Strategy 1: hoist invariant fresh-structure chains out of loops.
    for (const auto &FP : M.functions()) {
      if (!FP || FP->blocks().empty())
        continue;
      FuncIndex IX(*FP);
      for (uint32_t H = 0; H != FP->blocks().size(); ++H) {
        std::string Target = "hoist " + FP->getName() + "#b" + itos(H);
        if (E.Attempted->count(Target))
          continue;
        std::optional<HoistMatch> HM = matchHoist(M, *FP, IX, H, Sums, E);
        if (!HM)
          continue;

        ModuleRewriter RW(M);
        std::vector<Instruction *> Clones;
        for (const Instruction *I : HM->Hoisted)
          Clones.push_back(cloneInstr(*I));
        RW.insertBefore(HM->PreTerm->getId(), std::move(Clones));
        for (const Instruction *I : HM->Hoisted)
          RW.drop(I->getId());

        RewriteCandidate C;
        C.M = RW.apply();
        C.Target = std::move(Target);
        C.Rationale = "clone-per-op chain: hoisted " +
                      itos(HM->Hoisted.size()) + " loop-invariant instrs (" +
                      itos(HM->Calls) + " fresh-structure calls, iters=" +
                      itos(HM->Iters) + ", entries=" + itos(HM->Entries) +
                      ") out of loop b" + itos(HM->Header) +
                      "; evidence: " + HM->SiteEvidence;
        C.RewrittenInstrs = HM->Hoisted.size();
        return C;
      }
    }

    // Strategy 2: specialize clone-then-update callees to in-place
    // variants, one call site at a time.
    for (const auto &FP : M.functions()) {
      if (!FP || FP->blocks().empty())
        continue;
      FuncIndex IX(*FP);
      std::optional<InPlaceCallee> IP = matchInPlaceCallee(M, *FP, IX, Sums, E);
      if (!IP)
        continue;
      for (const auto &CF : M.functions()) {
        if (!CF || CF->blocks().empty() || CF.get() == FP.get())
          continue;
        for (const auto &BB : CF->blocks()) {
          size_t Ord = 0;
          for (const auto &I : BB->insts()) {
            auto *CS = dyn_cast<CallInst>(I.get());
            if (!CS || CS->isVirtual() || CS->Callee != FP->getId())
              continue;
            size_t MyOrd = Ord++;
            std::string Target = "inplace " + CF->getName() + "#b" +
                                 itos(BB->getId()) + "." + itos(MyOrd) +
                                 "->" + FP->getName();
            if (E.Attempted->count(Target))
              continue;
            // Evidence gate: the clone's site is classified clone-per-op,
            // or the site has already left the hot loop (a committed
            // hoist dropped its frequency to a handful of calls). A call
            // carries no Gcost frequency of its own, so the enclosing
            // block's count stands in for the site's.
            uint64_t SiteFreq = blockFreq(*BB, *E.InstrFreq);
            if (IP->CloneDesc.empty() && SiteFreq > 4)
              continue;
            return buildInPlace(E, *IP, CS, std::move(Target), SiteFreq);
          }
        }
      }
    }
    return std::nullopt;
  }

private:
  RewriteCandidate buildInPlace(const PassEvidence &E, const InPlaceCallee &IP,
                                const CallInst *CS, std::string Target,
                                uint64_t SiteFreq) {
    ModuleRewriter RW(*E.M);
    const Function *Src = IP.F2;
    const CallInst *Clone = IP.CloneCall;
    std::string Name = Src->getName() + "_inplace";
    FuncId NewId = E.M->findFunction(Name);
    size_t Synth = 0;
    if (NewId == kNoFunc) {
      NewId = RW.addFunction([Src, Clone, Name](Module &Out) {
        Function *NF = Out.addFunction(Name, Src->getNumParams(),
                                       Src->getNumRegs());
        for (size_t I = 0; I != Src->blocks().size(); ++I)
          NF->addBlock();
        for (size_t BI = 0; BI != Src->blocks().size(); ++BI) {
          BasicBlock *NB = NF->getBlock(uint32_t(BI));
          for (const auto &I : Src->blocks()[BI]->insts()) {
            // The clone becomes an alias: updates hit the receiver.
            if (I.get() == Clone)
              NB->append(new AssignInst(Clone->Dst, 0));
            else
              NB->append(cloneInstr(*I));
          }
        }
      });
      for (const auto &BB : Src->blocks())
        Synth += BB->insts().size();
    }
    RW.replaceWith(CS->getId(),
                   {CallInst::makeDirect(CS->Dst, NewId, CS->Args)});

    RewriteCandidate C;
    C.M = RW.apply();
    C.Target = std::move(Target);
    C.Rationale =
        "clone-then-update callee " + Src->getName() +
        " applies a same-index element update to a structure it cloned; "
        "call site (freq=" + itos(SiteFreq) + ") redirected to " + Name +
        (IP.CloneDesc.empty() ? std::string()
                              : "; evidence: " + IP.CloneDesc);
    C.RewrittenInstrs = 1 + Synth;
    return C;
  }
};

//===----------------------------------------------------------------------===//
// once-read-memo: loads of a once-read memo table recompute the stored
// pure value chain locally (substituting the load index for the store
// index); the stranded table then falls to the final dead-store sweep.
// When the table holds float bits (sunflow's Float.floatToIntBits slot
// packing), the encode/decode pair cancels: the recomputed float feeds
// the BitsF consumer directly.
//===----------------------------------------------------------------------===//

class OnceReadMemoPass : public NamedPass {
public:
  using NamedPass::NamedPass;

  std::optional<RewriteCandidate> next(const PassEvidence &E) override {
    for (const auto &FP : E.M->functions()) {
      if (!FP || FP->blocks().empty())
        continue;
      FuncIndex IX(*FP);
      for (const auto &BB : FP->blocks())
        for (const auto &IPtr : BB->insts()) {
          auto *AA = dyn_cast<AllocArrayInst>(IPtr.get());
          if (!AA)
            continue;
          std::string Target =
              Name + " " + FP->getName() + "#s" + itos(AA->Site);
          if (E.Attempted->count(Target))
            continue;
          std::optional<RewriteCandidate> C =
              tryRewrite(E, *FP, IX, AA, std::move(Target));
          if (C)
            return C;
        }
    }
    return std::nullopt;
  }

private:
  std::optional<RewriteCandidate> tryRewrite(const PassEvidence &E,
                                             const Function &F,
                                             const FuncIndex &IX,
                                             const AllocArrayInst *AA,
                                             std::string Target) {
    const UsageSummary *U = E.usage().bySite(AA->Site);
    if (!U || U->Kind != UsageKind::OnceRead || U->Writes < 16)
      return std::nullopt;
    Reg AR = AA->Dst;
    if (IX.uniqueDef(AR) != AA)
      return std::nullopt;

    // The array must not escape: its only uses are element stores (one
    // static site — the memo fill) and element loads.
    const StoreElemInst *Store = nullptr;
    std::vector<const LoadElemInst *> Loads;
    for (const auto &BB : F.blocks())
      for (const auto &IPtr : BB->insts()) {
        const Instruction &I = *IPtr;
        if (&I == AA || !readsRegister(I, AR))
          continue;
        if (auto *SE = dyn_cast<StoreElemInst>(&I)) {
          if (SE->Base != AR || SE->Index == AR || SE->Src == AR || Store)
            return std::nullopt;
          Store = SE;
        } else if (auto *LE = dyn_cast<LoadElemInst>(&I)) {
          if (LE->Base != AR || LE->Index == AR)
            return std::nullopt;
          Loads.push_back(LE);
        } else {
          return std::nullopt;
        }
      }
    if (!Store || Loads.empty())
      return std::nullopt;

    // The stored value must be a short pure chain over the store index
    // and invariant (uniquely defined, index-free) registers.
    // DependsOnIdx: 1 = varies with the index (must be cloned per load),
    // 0 = invariant (readable as-is at the load site), -1 = not
    // rematerializable.
    std::function<int(Reg, int)> DependsOnIdx = [&](Reg R, int Depth) -> int {
      if (R == Store->Index)
        return 1;
      if (R < F.getNumParams())
        return 0;
      Instruction *DI = IX.uniqueDef(R);
      if (!DI || Depth > 8)
        return -1;
      switch (DI->getKind()) {
      case Instruction::Kind::Const:
        return 0;
      case Instruction::Kind::Assign:
        return DependsOnIdx(cast<AssignInst>(DI)->Src, Depth + 1);
      case Instruction::Kind::Un:
        return DependsOnIdx(cast<UnInst>(DI)->Src, Depth + 1);
      case Instruction::Kind::Bin: {
        int L = DependsOnIdx(cast<BinInst>(DI)->Lhs, Depth + 1);
        int Rr = DependsOnIdx(cast<BinInst>(DI)->Rhs, Depth + 1);
        return L < 0 || Rr < 0 ? -1 : std::max(L, Rr);
      }
      default:
        return -1;
      }
    };

    std::vector<const Instruction *> Chain; // topo order, producer last
    std::set<const Instruction *> InChain;
    std::vector<Reg> Tmp;
    std::function<bool(Reg, int)> Collect = [&](Reg R, int Depth) -> bool {
      int D = DependsOnIdx(R, Depth);
      if (D < 0)
        return false;
      if (D == 0 || R == Store->Index)
        return true; // leaf
      Instruction *DI = IX.uniqueDef(R);
      if (InChain.count(DI))
        return true;
      Tmp.clear();
      appendUsedRegs(*DI, Tmp);
      for (Reg Op : std::vector<Reg>(Tmp))
        if (!Collect(Op, Depth + 1))
          return false;
      InChain.insert(DI);
      Chain.push_back(DI);
      return true;
    };
    if (!Collect(Store->Src, 0) || Chain.size() > 8)
      return std::nullopt;

    // Does the chain end in a float->bits encode whose decodes can fuse?
    const Instruction *Root =
        Chain.empty() ? nullptr : Chain.back();
    const UnInst *RootFBits = nullptr;
    if (Root && definedReg(*Root) == Store->Src)
      if (auto *UI = dyn_cast<UnInst>(Root))
        if (UI->Op == UnOp::FBits)
          RootFBits = UI;

    ModuleRewriter RW(*E.M);
    size_t Rewritten = 0, Fused = 0;
    for (const LoadElemInst *L : Loads) {
      // Fusion: the load's sole consumer is the matching bits->float
      // decode, later in the same block.
      const UnInst *Decode = nullptr;
      if (RootFBits && L->Dst != kNoReg && IX.Uses[L->Dst] == 1) {
        int LPos = positionInBlock(L);
        const auto &BI = L->getParent()->insts();
        for (size_t P = size_t(LPos) + 1; P != BI.size(); ++P)
          if (auto *UI = dyn_cast<UnInst>(BI[P].get()))
            if (UI->Op == UnOp::BitsF && UI->Src == L->Dst) {
              Decode = UI;
              break;
            }
      }
      size_t Count = Chain.size() - (Decode ? 1 : 0);
      Reg Value = Decode ? RootFBits->Src : Store->Src;
      Reg TargetDst = Decode ? Decode->Dst : L->Dst;

      std::map<Reg, Reg> Map;
      Map[Store->Index] = L->Index;
      auto Lk = [&](Reg R) {
        auto It = Map.find(R);
        return It == Map.end() ? R : It->second;
      };
      std::vector<Instruction *> Repl;
      bool ValueEmitted = false;
      for (size_t CI = 0; CI != Count; ++CI) {
        const Instruction &In = *Chain[CI];
        Reg D = definedReg(In);
        bool IsValue = D == Value;
        Reg ND = IsValue ? TargetDst : RW.newReg(F.getId());
        switch (In.getKind()) {
        case Instruction::Kind::Assign:
          Repl.push_back(new AssignInst(ND, Lk(cast<AssignInst>(&In)->Src)));
          break;
        case Instruction::Kind::Bin: {
          const auto *B = cast<BinInst>(&In);
          Repl.push_back(new BinInst(B->Op, ND, Lk(B->Lhs), Lk(B->Rhs)));
          break;
        }
        case Instruction::Kind::Un: {
          const auto *UI = cast<UnInst>(&In);
          Repl.push_back(new UnInst(UI->Op, ND, Lk(UI->Src)));
          break;
        }
        default:
          for (Instruction *R2 : Repl)
            delete R2;
          return std::nullopt;
        }
        Map[D] = ND;
        ValueEmitted = ValueEmitted || IsValue;
      }
      if (!ValueEmitted)
        Repl.push_back(new AssignInst(TargetDst, Lk(Value)));
      Rewritten += Repl.size();
      RW.replaceWith(L->getId(), std::move(Repl));
      if (Decode) {
        RW.drop(Decode->getId());
        ++Fused;
      }
    }

    RewriteCandidate C;
    C.M = RW.apply();
    C.Target = std::move(Target);
    C.Rationale =
        "once-read memo table " + U->Description + " (writes=" +
        itos(U->Writes) + ", reads=" + itos(U->Reads) +
        ", read-after-last-write=" + itos(U->ReadsAfterLastWrite) + "): " +
        itos(Loads.size()) + " load site(s) recompute a depth-" +
        itos(Chain.size()) + " pure chain" +
        (Fused ? " (" + itos(Fused) + " bits round-trip(s) cancelled)"
               : std::string()) +
        "; the table is left for the final dead-store sweep";
    C.RewrittenInstrs = Rewritten;
    return C;
  }
};

template <class P> std::unique_ptr<RewritePass> create(const char *Name) {
  return std::make_unique<P>(Name);
}

constexpr PassInfo PassTable[] = {
    {"dead-stores", create<DeadStorePass>},
    {"map-to-array", create<MapToArrayPass>},
    {"clone-per-op", create<ClonePerOpPass>},
    {"once-read-memo", create<OnceReadMemoPass>},
    {"dead-stores-final", create<DeadStorePass>},
};

} // namespace

std::span<const PassInfo> lud::opt::passTable() { return PassTable; }
