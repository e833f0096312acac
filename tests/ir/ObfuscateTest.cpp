//===- tests/ir/ObfuscateTest.cpp - Obfuscation pass layer -----------------===//

#include "ir/Obfuscate.h"

#include "ir/IRBuilder.h"
#include "ir/Module.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Interpreter.h"
#include "support/OutStream.h"

#include <gtest/gtest.h>

#include <set>

using namespace lud;

namespace {

std::string printToString(const Module &M) {
  StringOutStream OS;
  printModule(M, OS);
  return OS.str();
}

void expectVerifies(const Module &M) {
  std::vector<std::string> Errors;
  EXPECT_TRUE(verifyModule(M, Errors));
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
}

RunResult run(const Module &M) {
  NoopProfiler P;
  RunResult R = runModule(M, P);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  return R;
}

/// A small two-function program with a loop, branches, and observable
/// output — enough control flow for every transform to find a home.
std::unique_ptr<Module> buildSubject() {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);

  B.beginFunction("work", 1);
  Reg Acc = B.iconst(0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(6);
  Reg One = B.iconst(1);
  BasicBlock *Head = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(Head);
  B.setBlock(Head);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  B.binInto(Acc, BinOp::Add, Acc, I);
  B.binInto(I, BinOp::Add, I, One);
  B.br(Head);
  B.setBlock(Exit);
  Reg P0 = B.add(Acc, Reg(0));
  B.ret(P0);
  B.endFunction();

  B.beginFunction("main", 0);
  Reg A = B.iconst(3);
  Reg V = B.call("work", {A});
  B.ncallVoid("sink", {V});
  B.ret(V);
  B.endFunction();

  M->finalize();
  return M;
}

ObfuscateOptions allPasses(uint64_t Seed) {
  ObfuscateOptions O;
  O.Seed = Seed;
  O.Junk = O.Opaque = O.Strings = true;
  return O;
}

TEST(ObfuscateParseTest, AcceptsEveryPassName) {
  const struct {
    const char *Spec;
    bool Junk, Opaque, Strings;
  } Cases[] = {
      {"junk", true, false, false},
      {"opaque", false, true, false},
      {"strings", false, false, true},
      {"junk,opaque", true, true, false},
      {"opaque,strings,junk", true, true, true},
      {"all", true, true, true},
  };
  for (const auto &C : Cases) {
    ObfuscateOptions O;
    std::string Err;
    EXPECT_TRUE(parseObfuscatePasses(C.Spec, O, Err)) << C.Spec << ": " << Err;
    EXPECT_EQ(O.Junk, C.Junk) << C.Spec;
    EXPECT_EQ(O.Opaque, C.Opaque) << C.Spec;
    EXPECT_EQ(O.Strings, C.Strings) << C.Spec;
  }
}

TEST(ObfuscateParseTest, RejectsUnknownAndEmpty) {
  ObfuscateOptions O;
  std::string Err;
  EXPECT_FALSE(parseObfuscatePasses("bogus", O, Err));
  EXPECT_NE(Err.find("unknown obfuscation pass 'bogus'"), std::string::npos)
      << Err;
  Err.clear();
  EXPECT_FALSE(parseObfuscatePasses("junk,frobnicate", O, Err));
  EXPECT_NE(Err.find("frobnicate"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(parseObfuscatePasses("", O, Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;
  Err.clear();
  EXPECT_FALSE(parseObfuscatePasses(",,", O, Err));
  EXPECT_NE(Err.find("empty"), std::string::npos) << Err;
}

TEST(ObfuscateTest, DeterministicForAFixedSeed) {
  auto M = buildSubject();
  ObfuscationResult A = obfuscateModule(*M, allPasses(42));
  ObfuscationResult B = obfuscateModule(*M, allPasses(42));
  EXPECT_EQ(printToString(*A.M), printToString(*B.M));
  ASSERT_EQ(A.Manifest.size(), B.Manifest.size());
  for (size_t I = 0; I != A.Manifest.size(); ++I) {
    EXPECT_EQ(A.Manifest[I].Kind, B.Manifest[I].Kind);
    EXPECT_EQ(A.Manifest[I].Description, B.Manifest[I].Description);
  }
  EXPECT_EQ(A.InjectedInstrs, B.InjectedInstrs);
}

TEST(ObfuscateTest, VerifiesRunsAndPreservesObservables) {
  auto M = buildSubject();
  RunResult Orig = run(*M);
  for (uint64_t Seed : {1u, 7u, 99u}) {
    ObfuscationResult R = obfuscateModule(*M, allPasses(Seed));
    expectVerifies(*R.M);
    EXPECT_GT(R.InjectedInstrs, 0u) << "seed " << Seed;
    RunResult Obf = run(*R.M);
    EXPECT_EQ(Obf.ReturnValue.asInt(), Orig.ReturnValue.asInt())
        << "seed " << Seed;
    EXPECT_EQ(Obf.SinkHash, Orig.SinkHash) << "seed " << Seed;
    // Injection is not free: the payloads execute.
    EXPECT_GT(Obf.ExecutedInstrs, Orig.ExecutedInstrs) << "seed " << Seed;
  }
}

TEST(ObfuscateTest, PrintParseRoundTrip) {
  auto M = buildSubject();
  ObfuscationResult R = obfuscateModule(*M, allPasses(5));
  std::string Text1 = printToString(*R.M);
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M2 = parseModule(Text1, Errors);
  ASSERT_TRUE(M2) << (Errors.empty() ? "" : Errors.front());
  EXPECT_EQ(Text1, printToString(*M2));
  RunResult A = run(*R.M);
  RunResult B = run(*M2);
  EXPECT_EQ(A.ReturnValue.asInt(), B.ReturnValue.asInt());
  EXPECT_EQ(A.SinkHash, B.SinkHash);
}

TEST(ObfuscateTest, ManifestKindsFollowEnabledPasses) {
  auto M = buildSubject();

  ObfuscateOptions JunkOnly;
  JunkOnly.Seed = 3;
  JunkOnly.Junk = true;
  ObfuscationResult J = obfuscateModule(*M, JunkOnly);
  // All junk aggregates into the one module-wide accumulator site.
  ASSERT_EQ(J.Manifest.size(), 1u);
  EXPECT_EQ(J.Manifest[0].Kind, ObfKind::Junk);
  EXPECT_NE(J.Manifest[0].Description.find("ObfJunk"), std::string::npos);

  ObfuscateOptions OpaqueOnly;
  OpaqueOnly.Seed = 3;
  OpaqueOnly.Opaque = true;
  ObfuscationResult O = obfuscateModule(*M, OpaqueOnly);
  EXPECT_FALSE(O.Manifest.empty());
  for (const ObfSiteTag &T : O.Manifest) {
    EXPECT_EQ(T.Kind, ObfKind::Opaque);
    EXPECT_NE(T.Description.find("opaque predicate"), std::string::npos);
  }

  ObfuscateOptions StringsOnly;
  StringsOnly.Seed = 3;
  StringsOnly.Strings = true;
  ObfuscationResult S = obfuscateModule(*M, StringsOnly);
  EXPECT_FALSE(S.Manifest.empty());
  // At most one table per function, allocated in the function it names.
  std::set<std::string> Seen;
  for (const ObfSiteTag &T : S.Manifest) {
    EXPECT_EQ(T.Kind, ObfKind::StringTable);
    EXPECT_TRUE(Seen.insert(T.Function).second) << T.Function;
    EXPECT_EQ(S.M->getInstrFunction(T.Instr)->getName(), T.Function);
    EXPECT_EQ(S.M->getAllocSite(T.Site), S.M->getInstr(T.Instr));
  }
}

TEST(ObfuscateTest, InjectedNamesAvoidCollisions) {
  // A program that already owns the injected names: uniquification must
  // keep the module verifier-clean and behavior intact.
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  ClassDecl *C = M->addClass("ObfJunk");
  C->addField("x", Type::makeInt());
  M->addGlobal("obf_sink", Type::makeRef(C->getId()));
  M->addGlobal("obf_opaque", Type::makeInt());
  B.beginFunction("main", 0);
  Reg O = B.alloc(C->getId());
  Reg V = B.iconst(11);
  B.storeField(O, C->getId(), "x", V);
  Reg L = B.loadField(O, C->getId(), "x");
  B.ncallVoid("sink", {L});
  B.ret(L);
  B.endFunction();
  M->finalize();

  RunResult Orig = run(*M);
  ObfuscationResult R = obfuscateModule(*M, allPasses(4));
  expectVerifies(*R.M);
  RunResult Obf = run(*R.M);
  EXPECT_EQ(Obf.ReturnValue.asInt(), Orig.ReturnValue.asInt());
  EXPECT_EQ(Obf.SinkHash, Orig.SinkHash);
}

} // namespace
