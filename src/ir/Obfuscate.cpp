//===- ir/Obfuscate.cpp - Adversarial obfuscation pass layer ---------------===//

#include "ir/Obfuscate.h"

#include "ir/ObfuscateImpl.h"
#include "support/ErrorHandling.h"

#include <cassert>

using namespace lud;
using namespace lud::detail;

/// Per-block injection probabilities in percent.
static constexpr unsigned kJunkChance = 50;
static constexpr unsigned kOpaqueChance = 35;
/// Per-function probability, in percent, that a string table is planted.
static constexpr unsigned kStringChance = 60;

const char *lud::obfKindName(ObfKind K) {
  switch (K) {
  case ObfKind::Junk:
    return "junk";
  case ObfKind::Opaque:
    return "opaque";
  case ObfKind::StringTable:
    return "strings";
  }
  lud_unreachable("unknown obfuscation kind");
}

bool lud::parseObfuscatePasses(const std::string &Spec, ObfuscateOptions &Opts,
                               std::string &Err) {
  bool Any = false;
  size_t Pos = 0;
  while (Pos <= Spec.size()) {
    size_t Comma = Spec.find(',', Pos);
    std::string Name = Spec.substr(
        Pos, Comma == std::string::npos ? std::string::npos : Comma - Pos);
    if (Name == "all") {
      Opts.Junk = Opts.Opaque = Opts.Strings = true;
      Any = true;
    } else if (Name == "junk") {
      Opts.Junk = true;
      Any = true;
    } else if (Name == "opaque") {
      Opts.Opaque = true;
      Any = true;
    } else if (Name == "strings") {
      Opts.Strings = true;
      Any = true;
    } else if (!Name.empty()) {
      Err = "unknown obfuscation pass '" + Name +
            "' (expected junk, opaque, strings, or all)";
      return false;
    }
    if (Comma == std::string::npos)
      break;
    Pos = Comma + 1;
  }
  if (!Any) {
    Err = "empty obfuscation pass list (expected junk, opaque, strings, "
          "or all)";
    return false;
  }
  return true;
}

ObfuscationResult Obfuscator::run() {
  // Injected declarations number after every source one, with names
  // uniquified against the source module. Module-level draws happen
  // before any per-function split and have a fixed count per enabled
  // transform, keeping the whole rewrite deterministic.
  FuncId EntryFn = Src.getEntry();
  // Junk needs the entry function to install the accumulator the write
  // sites load; a module without one simply gets no junk.
  bool Junk = Opts.Junk && EntryFn != kNoFunc;
  if (Junk) {
    std::string Name = "ObfJunk";
    while (Src.findClass(Name) != kNoClass)
      Name += "_";
    JunkClass = Rw.addClass(Name);
    std::string SinkName = "obf_sink";
    while (Src.findGlobal(SinkName) != kNoGlobal)
      SinkName += "_";
    JunkSink = Rw.addGlobal(SinkName, Type::makeRef(JunkClass));
  }
  if (Opts.Opaque) {
    std::string Name = "obf_opaque";
    while (Src.findGlobal(Name) != kNoGlobal)
      Name += "_";
    OpaqueGlobal = Rw.addGlobal(Name, Type::makeInt());
    OpaqueKey = int64_t(Root.nextBelow(1u << 20)) + 3;
  }
  if (Opts.Strings)
    StringKey = int64_t(Root.nextBelow(255)) + 1;

  for (const auto &F : Src.functions()) {
    Cur = F->getId();
    RNG R = Root.split(Cur);

    Reg TabReg = kNoReg;
    bool Table = Opts.Strings && !F->blocks().empty() &&
                 numRegs() + 32 < 0xFF00u && R.nextBelow(100) < kStringChance;
    if (Table)
      TabReg = fresh();

    for (size_t BI = 0; BI != F->blocks().size(); ++BI) {
      const BasicBlock &OB = *F->blocks()[BI];
      assert(!OB.empty() && "a verified block ends in a terminator");

      if (BI == 0) {
        Seq Top;
        // The accumulator install comes first: the entry block runs
        // before anything else, so every later junk write finds a live
        // object in the sink global.
        if (Junk && Cur == EntryFn)
          emitJunkAccumulator(Top);
        // The opaque global is established at the very top of the entry
        // function, before any guard can load it: the profiler observes a
        // genuinely invariant value it must prove constant.
        if (Opts.Opaque && Cur == EntryFn) {
          Reg K = fresh();
          Top.push_back(ConstInst::makeInt(K, OpaqueKey));
          Top.push_back(new StoreStaticInst(OpaqueGlobal, K));
          Injected += 2;
        }
        if (Table)
          emitStringTableBuild(Top, TabReg, F->getName());
        if (!Top.empty())
          Rw.insertBefore(OB.insts().front()->getId(), std::move(Top));
      }

      // Injections land just before the terminator: the payload runs
      // exactly as often as the block does.
      const Instruction *Term = OB.terminator();
      Seq Payload;
      if (Junk && R.nextBelow(100) < kJunkChance)
        emitJunk(Payload, R);
      if (Table && R.nextBelow(100) < 70)
        emitStringDecode(Payload, R, TabReg);
      if (!Payload.empty())
        Rw.insertBefore(Term->getId(), std::move(Payload));
      if (Opts.Opaque && isa<BrInst>(Term) &&
          numRegs() + 8 < kNoReg && R.nextBelow(100) < kOpaqueChance) {
        Seq Guard;
        Instruction *CB =
            emitOpaqueGuard(Guard, R, cast<BrInst>(Term)->Target);
        Pending.push_back({ObfKind::Opaque, CB, Cur});
        Rw.replaceWith(Term->getId(), std::move(Guard));
      }
    }
  }

  std::unique_ptr<Module> Out = Rw.apply();

  ObfuscationResult Res;
  for (const PendingTag &T : Pending) {
    ObfSiteTag Tag;
    Tag.Kind = T.Kind;
    Tag.Function = Src.getFunction(T.Func)->getName();
    Tag.Instr = T.I->getId();
    if (T.Kind == ObfKind::Opaque) {
      Tag.Description = "opaque predicate @ " + Tag.Function + " #" +
                        std::to_string(T.I->getId());
    } else {
      Tag.Site = isa<AllocInst>(T.I) ? cast<AllocInst>(T.I)->Site
                                     : cast<AllocArrayInst>(T.I)->Site;
      Tag.Description = Out->describeAllocSite(Tag.Site);
    }
    Res.Manifest.push_back(std::move(Tag));
  }
  Res.M = std::move(Out);
  Res.InjectedInstrs = Injected;
  return Res;
}

ObfuscationResult lud::obfuscateModule(const Module &M,
                                       const ObfuscateOptions &Opts) {
  return Obfuscator(M, Opts).run();
}
