//===- fuzz/Fuzzer.cpp - Randomized differential fuzzing loop --------------===//

#include "fuzz/Fuzzer.h"

#include "fuzz/Minimizer.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "support/OutStream.h"

#include <chrono>
#include <cstdio>
#include <filesystem>

using namespace lud;
using namespace lud::fuzz;

namespace {

bool writeTextFile(const std::string &Path, const std::string &Text) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  std::fwrite(Text.data(), 1, Text.size(), F);
  std::fclose(F);
  return true;
}

bool writeModuleFile(const std::string &Path, const Module &M) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  {
    FileOutStream OS(F);
    printModule(M, OS);
  }
  std::fclose(F);
  return true;
}

std::string describeObfuscation(const RandomProgramOptions &P) {
  std::string S;
  if (P.ObfJunk)
    S += "junk,";
  if (P.ObfOpaque)
    S += "opaque,";
  if (P.ObfStrings)
    S += "strings,";
  if (S.empty())
    return "none";
  S.pop_back();
  return S;
}

std::string describeProgram(const RandomProgramOptions &P) {
  return "seed=" + std::to_string(P.Seed) +
         " classes=" + std::to_string(P.NumClasses) +
         " functions=" + std::to_string(P.NumFunctions) +
         " ops=" + std::to_string(P.OpsPerFunction) +
         " trip=" + std::to_string(P.MaxTrip) +
         " globals=" + std::to_string(P.NumGlobals) +
         " recursion=" + std::to_string(int(P.Recursion)) +
         " aliasing=" + std::to_string(int(P.Aliasing)) +
         " nullflows=" + std::to_string(int(P.NullFlows)) +
         " deadstores=" + std::to_string(int(P.DeadStores)) +
         " obf=" + describeObfuscation(P);
}

} // namespace

OracleConfig fuzz::randomOracleConfig(RNG &R) {
  OracleConfig C;
  static const uint32_t Slots[] = {1, 2, 4, 8, 16, 32};
  C.Slicing.ContextSlots = Slots[R.nextBelow(std::size(Slots))];
  C.Slicing.ThinSlicing = R.nextBelow(2) != 0;
  C.Slicing.ContextSensitive = R.nextBelow(2) != 0;
  C.Slicing.HotPathCaches = R.nextBelow(2) != 0;
  C.Clients = ClientSet(uint32_t(R.nextBelow(8)));
  // Either backend may be the reference; the engines mode always runs the
  // other one, so both orderings of the cross-check get fuzzed.
  C.Engine = R.nextBelow(2) != 0 ? EngineKind::Threaded : EngineKind::Interp;
  // The optimize mode re-profiles per committed rewrite, so it rides on a
  // quarter of the runs rather than all of them.
  C.CheckOptimize = R.nextBelow(4) == 0;
  return C;
}

RandomProgramOptions fuzz::randomProgramOptions(RNG &R) {
  RandomProgramOptions P;
  P.Seed = R.next();
  P.NumClasses = 1 + unsigned(R.nextBelow(4));
  P.NumFunctions = 2 + unsigned(R.nextBelow(6));
  P.OpsPerFunction = 10 + unsigned(R.nextBelow(51));
  P.MaxTrip = 2 + unsigned(R.nextBelow(5));
  P.NumGlobals = unsigned(R.nextBelow(4));
  P.Recursion = R.nextBelow(2) != 0;
  P.Aliasing = R.nextBelow(2) != 0;
  P.NullFlows = R.nextBelow(2) != 0;
  P.DeadStores = R.nextBelow(2) != 0;
  // Obfuscated shapes ride on a quarter of the runs. Both values are drawn
  // unconditionally so the stream position (and thus every later draw) is
  // stable whether or not the shape is enabled.
  bool Obf = R.nextBelow(4) == 0;
  uint64_t Bits = R.nextBelow(8);
  P.ObfJunk = Obf && (Bits & 1) != 0;
  P.ObfOpaque = Obf && (Bits & 2) != 0;
  P.ObfStrings = Obf && (Bits & 4) != 0;
  return P;
}

FuzzReport fuzz::runFuzz(const FuzzOptions &Opts) {
  FuzzReport Report;
  std::error_code EC;
  std::filesystem::create_directories(Opts.CorpusDir, EC);
  auto Path = [&](const std::string &Name) {
    return Opts.CorpusDir + "/" + Name;
  };
  auto Log = [&](const std::string &Line) {
    if (Opts.Log)
      *Opts.Log << Line << "\n";
  };

  RNG Base(Opts.Seed);
  auto T0 = std::chrono::steady_clock::now();
  for (uint64_t Run = 0; Run != Opts.Runs; ++Run) {
    if (Opts.TimeBudgetSeconds > 0) {
      double Elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - T0)
                           .count();
      if (Elapsed >= Opts.TimeBudgetSeconds) {
        Log("time budget exhausted after " + std::to_string(Run) + " runs");
        break;
      }
    }

    RNG R = Base.split(Run);
    RandomProgramOptions P = randomProgramOptions(R);
    OracleConfig OC = randomOracleConfig(R);
    // Obfuscated shapes exist to exercise the strip path: always run the
    // optimize oracle on them so every junk/opaque/strings program checks
    // that rewriting preserves observables.
    if (P.ObfJunk || P.ObfOpaque || P.ObfStrings)
      OC.CheckOptimize = true;
    std::unique_ptr<Module> M = generateRandomProgram(P);

    std::string Tag =
        "s" + std::to_string(Opts.Seed) + "-r" + std::to_string(Run);
    std::string Pending = Path("pending-" + Tag + ".lud");

    auto Record = [&](const std::string &Mode, const std::string &Detail) {
      FuzzFailure &F = Report.Failures.emplace_back();
      F.RunIndex = Run;
      F.Mode = Mode;
      F.Detail = Detail;
      F.Config = OC;

      std::string OrigPath = Path("repro-" + Tag + ".orig.lud");
      std::string MinPath = Path("repro-" + Tag + ".lud");
      writeModuleFile(OrigPath, *M);
      F.ReproPath = OrigPath;

      std::string Note = "lud-fuzz differential failure\n";
      Note += "base-seed: " + std::to_string(Opts.Seed) +
              "  run: " + std::to_string(Run) + "\n";
      Note += "program: " + describeProgram(P) + "\n";
      Note += "mode: " + Mode + "\n";
      Note += "detail: " + Detail + "\n";

      if (Opts.Minimize) {
        MinimizeResult Min = minimizeModule(
            *M, [&](const Module &C) { return !runOracle(C, OC).Ok; });
        if (Min.Reproduced) {
          writeModuleFile(MinPath, *Min.M);
          F.ReproPath = MinPath;
          Note += "minimized: " + std::to_string(Min.OriginalInstrs) +
                  " -> " + std::to_string(Min.FinalInstrs) +
                  " droppable instructions in " +
                  std::to_string(Min.Trials) + " trials\n";
        } else {
          Note += "minimized: failure did not survive re-cloning; original "
                  "kept\n";
        }
      }
      Note += "reproduce: lud-fuzz --check " + F.ReproPath + " " +
              configFlags(OC) + "\n";
      Note += "original:  lud-fuzz --check " + OrigPath + " " +
              configFlags(OC) + "\n";
      writeTextFile(Path("repro-" + Tag + ".txt"), Note);
      Log("run " + std::to_string(Run) + ": " + Mode + " divergence -> " +
          F.ReproPath);
    };

    // Persist the candidate before the oracle touches it: a crash or
    // sanitizer abort must leave the input behind.
    writeModuleFile(Pending, *M);

    std::vector<std::string> VerifyErrors;
    if (!verifyGeneratedModule(*M, VerifyErrors)) {
      std::string Detail;
      for (const std::string &E : VerifyErrors)
        Detail += E + "\n";
      Record("verifier", Detail);
    } else if (OracleResult O = runOracle(*M, OC); !O.Ok) {
      Record(O.Mode, O.Detail);
    }

    std::filesystem::remove(Pending, EC);
    ++Report.RunsDone;
    if (Opts.Log && (Run + 1) % 100 == 0)
      Log("  " + std::to_string(Run + 1) + "/" +
          std::to_string(Opts.Runs) + " runs, " +
          std::to_string(Report.Failures.size()) + " failure(s)");
  }
  return Report;
}
