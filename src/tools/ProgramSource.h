//===- tools/ProgramSource.h - Where a tool's program comes from -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one program loader behind every lud tool: a .lud file, a generated
/// workload (one of the 18 DaCapo analogues, or the composed tier), or a
/// random program from a seed — then, optionally, seeded obfuscation with
/// its injected-site manifest. The file is read and parsed once, and every
/// failure gets the same diagnostic in every tool.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TOOLS_PROGRAMSOURCE_H
#define LUD_TOOLS_PROGRAMSOURCE_H

#include "ir/Module.h"
#include "ir/Obfuscate.h"
#include "tools/CliOptions.h"

#include <memory>
#include <string>

namespace lud {
namespace cli {

struct ProgramSource {
  /// Option groups, for declare().
  enum Group : unsigned {
    /// --workload --scale
    WorkloadOpts = 1u << 0,
    /// --random
    RandomOpts = 1u << 1,
    /// --obfuscate --obfuscate-seed --obfuscate-manifest
    ObfuscateOpts = 1u << 2,
  };

  /// A .lud program file (the tool's positional operand).
  std::string File;
  /// A generated workload's name, and its scale.
  std::string Workload;
  int64_t Scale = 2000;
  /// The workload's hand-optimized variant.
  bool Optimized = false;
  /// A random program from Seed.
  bool Random = false;
  uint64_t Seed = 0;
  /// Obfuscation; a manifest path implies it, with every pass.
  bool Obfuscate = false;
  ObfuscateOptions Obf;
  std::string Manifest;

  ProgramSource() = default;
  // declare() binds the options to this object's address.
  ProgramSource(const ProgramSource &) = delete;
  ProgramSource &operator=(const ProgramSource &) = delete;

  /// Declares the options of every group in \p Groups on \p P.
  void declare(OptionSet &P, unsigned Groups);

  /// Produces the program, obfuscated when asked (summary on stderr,
  /// manifest written). Null after a diagnostic, with \p ExitCode set: 2
  /// for a usage error, 1 for an unreadable or malformed input.
  std::unique_ptr<Module> load(int &ExitCode);
};

} // namespace cli
} // namespace lud

#endif // LUD_TOOLS_PROGRAMSOURCE_H
