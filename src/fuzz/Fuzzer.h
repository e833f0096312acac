//===- fuzz/Fuzzer.h - Randomized differential fuzzing loop ----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The lud-fuzz driving loop: per run, derive an independent RNG stream
/// (RNG::split, so run k is reproducible in isolation), draw a random
/// program shape and a random analysis configuration, generate a
/// verifier-clean module, and hand it to the differential oracle. The
/// candidate program is written to the corpus directory BEFORE the oracle
/// runs, so a crash or sanitizer abort always leaves the offending input
/// on disk. On divergence the ddmin minimizer shrinks the program and the
/// corpus gains a minimized repro, the original, and a .txt note carrying
/// the exact `lud-fuzz --check` command line that reproduces the failure.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_FUZZ_FUZZER_H
#define LUD_FUZZ_FUZZER_H

#include "fuzz/Oracle.h"
#include "support/RNG.h"
#include "workloads/RandomProgram.h"

#include <cstdint>
#include <string>
#include <vector>

namespace lud {

class OutStream;

namespace fuzz {

struct FuzzOptions {
  /// Base seed; run k draws from split stream k, so any single run can be
  /// re-derived without replaying the runs before it.
  uint64_t Seed = 1;
  uint64_t Runs = 100;
  /// Stop early after this much wall time (0 = no time budget).
  double TimeBudgetSeconds = 0;
  /// Where candidates and repros are written.
  std::string CorpusDir = "fuzz-corpus";
  /// Shrink failures with ddmin before emitting the repro.
  bool Minimize = true;
  /// Progress and failure lines (null = silent).
  OutStream *Log = nullptr;
};

struct FuzzFailure {
  uint64_t RunIndex = 0;
  std::string Mode;
  std::string Detail;
  /// Path of the minimized .lud repro (the original when minimization was
  /// off or the failure did not survive re-cloning).
  std::string ReproPath;
  OracleConfig Config;
};

struct FuzzReport {
  uint64_t RunsDone = 0;
  std::vector<FuzzFailure> Failures;
};

/// Runs the fuzzing loop; returns what it found.
FuzzReport runFuzz(const FuzzOptions &Opts);

/// The per-run knob derivations, exposed so deterministic tests can sweep
/// the same configurations the fuzzer explores.
OracleConfig randomOracleConfig(RNG &R);
RandomProgramOptions randomProgramOptions(RNG &R);

} // namespace fuzz
} // namespace lud

#endif // LUD_FUZZ_FUZZER_H
