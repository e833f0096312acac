//===- ir/Obfuscate.h - Adversarial obfuscation pass layer -----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded, deterministic obfuscation transforms over finalized modules —
/// the adversarial counterpart of the cooperative DaCapo analogues. Each
/// transform plants exactly the low-utility shapes Section 3.2 of the paper
/// diagnoses, and each injected site is benefit-zero *by construction*, so
/// the workloads are self-validating: the cost-benefit report must rank the
/// manifest-tagged sites above every genuine structure, and the profile-
/// guided optimizer must strip them while preserving status / sink hash /
/// return value on both engines.
///
/// Three transforms, independently selectable:
///  - junk-code injection: dead structures written on executed paths but
///    never read (pure n-RAC, the "dead ratio" rows of the report);
///  - opaque predicates: always-true / always-false guards over a global
///    the program never varies (the constant-predicate client must prove
///    the invariance the obfuscator hid);
///  - string tables: encode-at-build / decode-at-runtime element rewrites
///    (the rewrite-per-read pattern of the paper's case studies).
///
/// Obfuscation is a set of ModuleRewriter edits (ir/Rewrite.h): payloads
/// are inserted before existing instructions, a guarded `br` is replaced,
/// and the junk class, its globals and the diversion blocks are additions.
/// Blocks keep their ids (diversion blocks are appended after all
/// originals), registers grow past the source frame, and no observable
/// behavior changes — the transforms introduce no native calls, no traps,
/// and no new back edges.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_IR_OBFUSCATE_H
#define LUD_IR_OBFUSCATE_H

#include "ir/Ids.h"

#include <memory>
#include <string>
#include <vector>

namespace lud {

class Module;

/// Which transform produced an injected site (manifest entries).
enum class ObfKind : uint8_t {
  Junk,
  Opaque,
  StringTable,
};

/// Printable transform name ("junk", "opaque", "strings").
const char *obfKindName(ObfKind K);

struct ObfuscateOptions {
  /// Seed of the deterministic transform stream. Identical seed + options
  /// + input module => byte-identical output and manifest.
  uint64_t Seed = 1;

  /// Transform selection (all off by default; parseObfuscatePasses fills
  /// these from a "junk,opaque,strings" / "all" spelling).
  bool Junk = false;
  bool Opaque = false;
  bool Strings = false;

  /// Function-name scope filters. When Include is non-empty only listed
  /// functions are transformed; Exclude always wins. Control-flow outside
  /// the scope is never touched.
  std::vector<std::string> Include;
  std::vector<std::string> Exclude;

  /// Per-function probability, in percent, that a string table is
  /// planted.
  unsigned StringChance = 60;
};

/// One injected site, recorded for exact report-ranking assertions.
struct ObfSiteTag {
  ObfKind Kind = ObfKind::Junk;
  /// Function the site was injected into.
  std::string Function;
  /// For Junk / StringTable: Module::describeAllocSite of the injected
  /// allocation, verbatim, so tests and CI can match report rows by
  /// string. For Opaque: "opaque predicate @ <function> #<instr>".
  std::string Description;
  /// Allocation site id in the obfuscated module (Junk / StringTable).
  AllocSiteId Site = kNoAllocSite;
  /// Instruction id in the obfuscated module (the alloc, or the CondBr of
  /// an opaque predicate).
  InstrId Instr = kNoInstr;
};

struct ObfuscationResult {
  std::unique_ptr<Module> M;
  std::vector<ObfSiteTag> Manifest;
  /// Instructions the transforms added (diversion-block payloads included).
  size_t InjectedInstrs = 0;
};

/// Parses a pass list ("junk", "opaque", "strings", comma-separated, or
/// "all") into \p Opts. Returns false and sets \p Err on an unknown name
/// or an empty list.
bool parseObfuscatePasses(const std::string &Spec, ObfuscateOptions &Opts,
                          std::string &Err);

/// Applies the selected transforms to finalized module \p M and returns
/// the finalized, verifier-clean obfuscated module plus its manifest.
/// Deterministic in (module, options).
ObfuscationResult obfuscateModule(const Module &M,
                                  const ObfuscateOptions &Opts);

} // namespace lud

#endif // LUD_IR_OBFUSCATE_H
