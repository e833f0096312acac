//===- tools/lud-gen.cpp - Emit workloads as textual IR --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Prints one of the built-in programs as textual .lud IR on stdout, so it
/// can be inspected, edited, and fed back through lud-run:
///
///   lud-gen chart 500 > chart.lud
///   lud-gen composed 60 > composed.lud
///   lud-gen --random 42 > fuzz.lud
///   lud-gen --obfuscate=junk,opaque --obfuscate-seed=7 chart 400 > adv.lud
///   lud-run --report chart.lud
///
//===----------------------------------------------------------------------===//

#include "ir/Printer.h"
#include "support/OutStream.h"
#include "tools/ProgramSource.h"
#include "workloads/DaCapo.h"

#include <charconv>
#include <string>

using namespace lud;

namespace {

void listWorkloads() {
  errs() << "  workloads:";
  for (const std::string &N : dacapoNames())
    errs() << " " << N;
  errs() << " composed\n";
}

} // namespace

int main(int argc, char **argv) {
  cli::ProgramSource Src;
  Src.Scale = 500;
  cli::OptionSet P("lud-gen", "<workload> [scale]");
  Src.declare(P, cli::ProgramSource::RandomOpts |
                     cli::ProgramSource::ObfuscateOpts);
  P.flag("--optimized", Src.Optimized,
         "emit the workload's hand-optimized variant");
  if (!P.parse(argc, argv)) {
    P.usage();
    listWorkloads();
    return 2;
  }
  if (P.exitRequested())
    return 0;

  if (!Src.Random) {
    if (P.positionals().empty()) {
      P.usage();
      listWorkloads();
      return 2;
    }
    Src.Workload = P.positionals()[0];
    if (P.positionals().size() > 1) {
      // Same full-consumption contract as every numeric option: a mistyped
      // scale is an error, not a silently truncated prefix.
      const std::string &S = P.positionals()[1];
      auto [Ptr, Ec] =
          std::from_chars(S.data(), S.data() + S.size(), Src.Scale);
      if (Ec == std::errc::result_out_of_range) {
        errs() << "scale '" << S << "' is out of range\n";
        return 2;
      }
      if (Ec != std::errc() || Ptr != S.data() + S.size() || Src.Scale < 1) {
        errs() << "scale wants a positive integer, got '" << S << "'\n";
        return 2;
      }
    }
  }
  int LoadRc = 0;
  std::unique_ptr<Module> M = Src.load(LoadRc);
  if (!M)
    return LoadRc;
  printModule(*M, outs());
  return 0;
}
