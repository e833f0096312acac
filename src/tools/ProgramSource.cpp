//===- tools/ProgramSource.cpp - Where a tool's program comes from ---------===//

#include "tools/ProgramSource.h"

#include "ir/Parser.h"
#include "support/OutStream.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"
#include "workloads/RandomProgram.h"

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <vector>

using namespace lud;
using namespace lud::cli;

namespace {

/// Builds the named generated workload: a DaCapo analogue, or "composed"
/// for the paper-scale tier. Null, after a diagnostic, for an unknown name
/// or a missing optimized variant.
std::unique_ptr<Module> buildNamedWorkload(const std::string &Name,
                                           int64_t Scale, bool Optimized) {
  const std::vector<std::string> &Names = dacapoNames();
  bool Analogue = std::find(Names.begin(), Names.end(), Name) != Names.end();
  if (!Analogue && Name != "composed") {
    errs() << "unknown workload '" << Name
           << "' (expected a DaCapo analogue or 'composed')\n";
    return nullptr;
  }
  if (Optimized && !hasOptimizedVariant(Name)) {
    errs() << "'" << Name << "' has no optimized variant\n";
    return nullptr;
  }
  return Analogue ? std::move(buildWorkload(Name, Scale, Optimized).M)
                  : std::move(buildComposedWorkload(Scale).M);
}

} // namespace

void ProgramSource::declare(OptionSet &P, unsigned Groups) {
  if (Groups & WorkloadOpts) {
    P.str("--workload", Workload,
          "NAME  use a generated workload instead of a program file: one "
          "of the 18 DaCapo analogues, or 'composed' (the paper-scale tier)");
    P.number("--scale", Scale, "N  scale for --workload (default 2000)",
             /*Min=*/1);
  }
  if (Groups & RandomOpts)
    P.custom("--random", ValueMode::Required,
             "SEED  generate a random program from SEED instead",
             [this](const std::string &S) {
               // strtoull would silently accept "12abc" and wrap values
               // past 2^64; both made "the same seed" mean different
               // programs.
               auto [Ptr, Ec] =
                   std::from_chars(S.data(), S.data() + S.size(), Seed, 10);
               if (Ec == std::errc::result_out_of_range) {
                 errs() << "option '--random' seed '" << S
                        << "' does not fit in 64 bits\n";
                 return false;
               }
               if (Ec != std::errc() || Ptr != S.data() + S.size() ||
                   S.empty()) {
                 errs() << "option '--random' wants a non-negative integer "
                           "seed, got '"
                        << S << "'\n";
                 return false;
               }
               Random = true;
               return true;
             });
  if (Groups & ObfuscateOpts) {
    P.custom("--obfuscate", ValueMode::Optional,
             "[=LIST]  obfuscate the program (junk, opaque, strings, or "
             "all; default all)",
             [this](const std::string &V) {
               Obfuscate = true;
               if (V.empty()) {
                 Obf.Junk = Obf.Opaque = Obf.Strings = true;
                 return true;
               }
               std::string Err;
               if (parseObfuscatePasses(V, Obf, Err))
                 return true;
               errs() << Err << "\n";
               return false;
             });
    P.number("--obfuscate-seed", Obf.Seed,
             "N  seed of the obfuscation transform stream (default 1)",
             /*Min=*/0);
    P.str("--obfuscate-manifest", Manifest,
          "F  write the injected-site manifest to F (implies --obfuscate)");
  }
}

std::unique_ptr<Module> ProgramSource::load(int &ExitCode) {
  ExitCode = 2;
  std::unique_ptr<Module> M;
  if (Random) {
    RandomProgramOptions Opts;
    Opts.Seed = Seed;
    M = generateRandomProgram(Opts);
  } else if (!Workload.empty()) {
    if (!File.empty()) {
      errs() << "--workload generates the program; it cannot be combined "
                "with an input file\n";
      return nullptr;
    }
    M = buildNamedWorkload(Workload, Scale, Optimized);
    if (!M)
      return nullptr;
  } else {
    ExitCode = 1;
    std::string Text;
    if (!readFileBytes(File, Text)) {
      errs() << "cannot read '" << File << "': " << std::strerror(errno)
             << "\n";
      return nullptr;
    }
    std::vector<std::string> Errors;
    M = parseModule(Text, Errors);
    if (!M) {
      for (const std::string &E : Errors)
        errs() << File << ": " << E << "\n";
      return nullptr;
    }
  }

  if (!Obfuscate) {
    if (Manifest.empty())
      return M;
    Obf.Junk = Obf.Opaque = Obf.Strings = true;
  }
  // Obfuscation happens before anything looks at the module, so every
  // consumer sees the adversarial shapes. The summary goes to stderr to
  // keep the report streams stable.
  ObfuscationResult Res = obfuscateModule(*M, Obf);
  size_t NumJunk = 0, NumOpaque = 0, NumTables = 0;
  for (const ObfSiteTag &T : Res.Manifest) {
    NumJunk += T.Kind == ObfKind::Junk;
    NumOpaque += T.Kind == ObfKind::Opaque;
    NumTables += T.Kind == ObfKind::StringTable;
  }
  errs() << "obfuscated: " << uint64_t(NumJunk) << " junk sites, "
         << uint64_t(NumOpaque) << " opaque predicates, "
         << uint64_t(NumTables) << " string tables (seed " << Obf.Seed
         << ")\n";
  if (!Manifest.empty() && !writeFile(Manifest, [&Res](OutStream &OS) {
        for (const ObfSiteTag &T : Res.Manifest)
          OS << obfKindName(T.Kind) << "\t" << T.Description << "\n";
      })) {
    ExitCode = 1;
    return nullptr;
  }
  return std::move(Res.M);
}
