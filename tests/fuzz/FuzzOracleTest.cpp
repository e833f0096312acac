//===- tests/fuzz/FuzzOracleTest.cpp - Differential oracle ----------------===//
//
// Deterministic slice of the lud-fuzz loop: a fixed batch of seeds swept
// through exactly the knob derivations the fuzzer uses, each candidate
// cross-checked by the full oracle (caches flip, record->replay, sharded
// folds, GraphIO round trip). Also pins the RNG split contract the
// per-run reproducibility story depends on, and the strict generated-code
// verifier the fuzzer gates candidates with.
//
//===----------------------------------------------------------------------===//

#include "fuzz/Fuzzer.h"
#include "fuzz/Oracle.h"
#include "ir/IRBuilder.h"
#include "ir/Verifier.h"
#include "support/RNG.h"
#include "workloads/Driver.h"
#include "workloads/RandomProgram.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../TestUtil.h"

using namespace lud;
using namespace lud::test;

namespace {

// The acceptance sweep: 25 fixed seed streams, the same derivation chain
// runFuzz uses (split stream -> program shape -> oracle config), every
// execution mode in agreement. A regression in any mode, in the
// generator's guarantees, or in the verifier shows up here with the
// failing stream's index and the oracle's first-difference diagnostic.
TEST(FuzzOracleTest, FixedSeedsAgreeAcrossAllModes) {
  RNG Base(1);
  for (uint64_t Run = 0; Run != 25; ++Run) {
    RNG R = Base.split(Run);
    RandomProgramOptions P = fuzz::randomProgramOptions(R);
    fuzz::OracleConfig OC = fuzz::randomOracleConfig(R);
    std::unique_ptr<Module> M = generateRandomProgram(P);
    ASSERT_NE(M, nullptr) << "stream " << Run;

    std::vector<std::string> Errors;
    ASSERT_TRUE(verifyGeneratedModule(*M, Errors))
        << "stream " << Run << ": " << (Errors.empty() ? "" : Errors[0]);

    fuzz::OracleResult O = fuzz::runOracle(*M, OC);
    EXPECT_TRUE(O.Ok) << "stream " << Run << " diverged in mode '" << O.Mode
                      << "': " << O.Detail << "\n  config: "
                      << fuzz::configFlags(OC);
  }
}

// Run k must be derivable without replaying runs 0..k-1: split(k) depends
// only on the base state and k, and distinct streams decorrelate.
TEST(FuzzOracleTest, SplitStreamsAreReproducibleAndIndependent) {
  RNG Base(42);
  RNG A = Base.split(7);
  uint64_t First = A.next();
  (void)A.next();

  // Splitting again from the same base replays the stream from scratch.
  RNG B = Base.split(7);
  EXPECT_EQ(B.next(), First);

  // Sibling streams start differently.
  RNG C = Base.split(8);
  EXPECT_NE(C.next(), First);

  // split() is const: deriving streams does not perturb the base draw.
  RNG Fresh(42);
  EXPECT_EQ(Base.next(), Fresh.next());
}

// The generator's hard guarantees under every feature the fuzzer can
// enable: recursion, aliasing, null flows, dead stores, globals. Programs
// must verify and terminate on their own (no interpreter budget).
TEST(FuzzOracleTest, AggressiveGeneratorOptionsStillTerminate) {
  for (uint64_t Seed : {2u, 9u, 23u, 31u, 58u}) {
    RandomProgramOptions P;
    P.Seed = Seed;
    P.NumFunctions = 6;
    P.OpsPerFunction = 50;
    P.NumGlobals = 3;
    P.Recursion = true;
    P.Aliasing = true;
    P.NullFlows = true;
    P.DeadStores = true;
    std::unique_ptr<Module> M = generateRandomProgram(P);
    std::vector<std::string> Errors;
    EXPECT_TRUE(verifyGeneratedModule(*M, Errors)) << "seed " << Seed;
    TimedRun T = baselineRun(*M);
    EXPECT_EQ(T.Run.Status, RunStatus::Finished) << "seed " << Seed;
  }
}

// verifyGeneratedModule is strictly stronger than verifyModule: a read of
// a register no instruction ever writes passes the structural checks (the
// register is in range) but must be rejected for generated programs.
TEST(FuzzOracleTest, GeneratedVerifierRejectsUndefinedRegisterReads) {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  Function *F = B.beginFunction("main", 0);
  Reg One = B.iconst(1);
  Reg Hole = B.newReg(); // Allocated, never written.
  Reg Sum = B.bin(BinOp::Add, One, Hole);
  (void)Sum;
  B.ret();
  B.endFunction();
  M->setEntry(F->getId());
  M->finalize();

  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(*M, Errors)) << (Errors.empty() ? "" : Errors[0]);
  Errors.clear();
  EXPECT_FALSE(verifyGeneratedModule(*M, Errors));
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("never written"), std::string::npos) << Errors[0];
}

// The repro command line renders every knob the oracle config carries.
TEST(FuzzOracleTest, ConfigFlagsSpellOutEveryKnob) {
  fuzz::OracleConfig OC;
  OC.Slicing.ContextSlots = 16;
  std::string Flags = fuzz::configFlags(OC);
  EXPECT_NE(Flags.find("--slots=16"), std::string::npos) << Flags;
  EXPECT_NE(Flags.find("--clients="), std::string::npos) << Flags;
  EXPECT_NE(Flags.find("--thin-slicing="), std::string::npos) << Flags;
  EXPECT_NE(Flags.find("--context-sensitive="), std::string::npos) << Flags;
  EXPECT_NE(Flags.find("--hot-path-caches="), std::string::npos) << Flags;

  EXPECT_EQ(clientSetName(ClientSet::none()), "none");
  EXPECT_EQ(clientSetName(ClientSet::all()), "all");
  EXPECT_EQ(clientSetName(ClientSet::copy() | ClientSet::typestate()),
            "copy,typestate");
  // The typed set keeps the legacy bit layout, so recorded uint32_t
  // configurations keep their meaning through the bridge constructor.
  EXPECT_EQ(ClientSet(0x7u), ClientSet::all());
  EXPECT_EQ(ClientSet(uint32_t(1)), ClientSet::copy());
}

// Every printed client set — "none" included — parses back to itself, so a
// repro line or a daemon listing can be pasted into --clients=.
TEST(FuzzOracleTest, ClientSetNameRoundTrips) {
  for (uint32_t Bits = 0; Bits != 8; ++Bits) {
    ClientSet S(Bits);
    ClientSet Parsed;
    std::string Err;
    ASSERT_TRUE(parseClientSet(clientSetName(S), Parsed, Err))
        << clientSetName(S) << ": " << Err;
    EXPECT_EQ(Parsed, S) << clientSetName(S);
  }
  ClientSet Parsed;
  std::string Err;
  EXPECT_FALSE(parseClientSet("none,copy", Parsed, Err));
  EXPECT_NE(Err.find("only element"), std::string::npos) << Err;
}

} // namespace
