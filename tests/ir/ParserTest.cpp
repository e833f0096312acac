//===- tests/ir/ParserTest.cpp - Textual format round trips ----------------===//

#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "runtime/Interpreter.h"
#include "support/OutStream.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace std::string_literals;
using namespace std::string_view_literals;

namespace {

std::unique_ptr<Module> parseOrDie(std::string_view Text) {
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = parseModule(Text, Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  return M;
}

int64_t runMain(const Module &M) {
  NoopProfiler P;
  RunResult R = runModule(M, P);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  return R.ReturnValue.asInt();
}

TEST(ParserTest, MinimalProgram) {
  auto M = parseOrDie(R"(
func main() regs 3 {
bb0:
  r0 = iconst 40
  r1 = iconst 2
  r2 = add r0, r1
  ret r2
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), 42);
}

TEST(ParserTest, ClassesFieldsAndMethods) {
  auto M = parseOrDie(R"(
# A linked node summing its values.
class Node {
  val: int;
  next: Node;
}

method Node.get(r0) regs 2 {
bb0:
  r1 = r0.Node::val
  ret r1
}

func main() regs 8 {
bb0:
  r0 = new Node
  r1 = new Node
  r2 = iconst 5
  r0.Node::val = r2
  r3 = iconst 7
  r1.val = r3          # unqualified: unique field name
  r0.Node::next = r1
  r4 = vcall get(r0)
  r5 = r0.Node::next
  r6 = vcall get(r5)
  r7 = add r4, r6
  ret r7
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), 12);
}

TEST(ParserTest, ControlFlowLoops) {
  auto M = parseOrDie(R"(
func main() regs 4 {
bb0:
  r0 = iconst 0
  r1 = iconst 0
  r2 = iconst 10
  r3 = iconst 1
  goto bb1
bb1:
  if r1 < r2 goto bb2 else bb3
bb2:
  r0 = add r0, r1
  r1 = add r1, r3
  goto bb1
bb3:
  ret r0
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), 45);
}

TEST(ParserTest, ArraysGlobalsNatives) {
  auto M = parseOrDie(R"(
global counter: int

func main() regs 8 {
bb0:
  r0 = iconst 3
  r1 = newarray int, r0
  r2 = iconst 1
  r3 = iconst 99
  r1[r2] = r3
  r4 = r1[r2]
  r5 = len r1
  @counter = r5
  r6 = @counter
  r7 = add r4, r6
  ncall sink(r7)
  ret r7
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), 102);
}

TEST(ParserTest, FloatsAndUnaryOps) {
  auto M = parseOrDie(R"(
func main() regs 4 {
bb0:
  r0 = fconst 2.5
  r1 = fbits r0
  r2 = bitsf r1
  r3 = f2i r2
  ret r3
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), 2);
}

TEST(ParserTest, InheritanceAndOverride) {
  auto M = parseOrDie(R"(
class Base { x: int; }
class Derived extends Base { y: int; }

method Base.id(r0) regs 1 {
bb0:
  r0 = iconst 1
  ret r0
}
method Derived.id(r0) regs 1 {
bb0:
  r0 = iconst 2
  ret r0
}

func main() regs 4 {
bb0:
  r0 = new Base
  r1 = new Derived
  r2 = vcall id(r0)
  r3 = vcall id(r1)
  r2 = add r2, r3
  ret r2
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), 3);
}

TEST(ParserTest, ForwardFunctionReferences) {
  // Callee declared after the caller in the file.
  auto M = parseOrDie(R"(
func main() regs 2 {
bb0:
  r0 = iconst 20
  r1 = call dbl(r0)
  ret r1
}
func dbl(r0) regs 2 {
bb0:
  r1 = add r0, r0
  ret r1
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), 40);
}

TEST(ParserTest, PrintParseRoundTrip) {
  // Build a representative module programmatically, print it, parse the
  // text, print again: the two texts must be identical and the programs
  // behave identically.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  A->addField("r", Type::makeRef(A->getId()));
  M.addGlobal("g", Type::makeFloat());
  IRBuilder B(M);
  B.beginMethod(A->getId(), "bump", 1);
  Reg V = B.loadField(0, A->getId(), "f");
  Reg One = B.iconst(1);
  Reg S = B.add(V, One);
  B.storeField(0, A->getId(), "f", S);
  B.ret(S);
  B.endFunction();
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C = B.iconst(4);
  B.storeField(O, A->getId(), "f", C);
  Reg R1 = B.vcall("bump", {O});
  Reg R2 = B.vcall("bump", {O});
  Reg Sum = B.add(R1, R2);
  B.ncallVoid("sink", {Sum});
  B.ret(Sum);
  B.endFunction();
  M.finalize();

  StringOutStream Text1;
  printModule(M, Text1);
  auto M2 = parseOrDie(Text1.str());
  ASSERT_TRUE(M2);
  StringOutStream Text2;
  printModule(*M2, Text2);
  EXPECT_EQ(Text1.str(), Text2.str());
  EXPECT_EQ(runMain(M), runMain(*M2));
}

TEST(ParserTest, ErrorsAreReported) {
  struct Case {
    const char *Text;
    const char *ExpectSubstr;
  };
  const Case Cases[] = {
      {"func main() regs 1 {\nbb0:\n  r0 = bogus r0\n  ret\n}\n",
       "unknown statement head"},
      {"func main() regs 1 {\nbb0:\n  r0 = new Missing\n  ret\n}\n",
       "unknown class"},
      {"func main() regs 1 {\nbb0:\n  r0 = call nope()\n  ret\n}\n",
       "unknown function"},
      {"class B extends Missing { }\nfunc main() regs 1 {\nbb0:\n  ret\n}\n",
       "not declared"},
      {"func main() regs 1 {\nbb0:\n  r0 = @missing\n  ret\n}\n",
       "unknown global"},
      {"func main() regs 1 {\n  r0 = iconst 1\n}\n",
       "statement before first block label"},
  };
  for (const Case &C : Cases) {
    std::vector<std::string> Errors;
    std::unique_ptr<Module> M = parseModule(C.Text, Errors);
    EXPECT_EQ(M, nullptr) << C.Text;
    ASSERT_FALSE(Errors.empty()) << C.Text;
    EXPECT_NE(Errors[0].find(C.ExpectSubstr), std::string::npos)
        << "got: " << Errors[0];
  }
}

TEST(ParserTest, GoldenDiagnostics) {
  // Malformed inputs and their complete diagnostic lists, every line number
  // and message. Lexer errors (unexpected characters) are reported alone,
  // ahead of any parse error earlier in the file.
  struct Case {
    std::string_view Text;
    std::vector<std::string> Errors;
  };
  const Case Cases[] = {
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = bogus r0\n"
       "  ret\n"
       "}\n"sv,
       {"line 3: unknown statement head 'bogus'",
        "line 3: expected '}'"}},
      {"func main() regs 2 {\n"
       "# comment $ % !\n"
       "bb0:\n"
       "  r0 = iconst 1 $\n"
       "  r1 = iconst 2\n"
       "  % r1 = r0\n"
       "  ret r0 ! r1\n"
       "}\n"sv,
       {"line 4: unexpected character '$'",
        "line 6: unexpected character '%'",
        "line 7: unexpected character '!'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = bogus r0\n"
       "  ret\n"
       "}\n"
       "\n"
       "func f() regs 1 {\n"
       "bb0:\n"
       "  r0 = iconst 1 + 2\n"
       "  ret r0\n"
       "}\n"sv,
       {"line 9: unexpected character '+'"}},
      {"func main() regs 1 {\r\n"
       "bb0:\r\n"
       "  r0 = iconst 1 \xc3" "\xa9" "\r\n"
       "  ret r0\r\n"
       "}\r\n"
       "\x00" "\n"sv,
       {"line 3: unexpected character '\xc3" "'",
        "line 3: unexpected character '\xa9" "'",
        "line 6: unexpected character '\x00" "'"s}},
      {"class B extends Missing { }\n"
       "func main() regs 1 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 1: superclass 'Missing' not declared (supers must precede "
        "subclasses)"}},
      {"class A { x: int; }\n"
       "class A { y: int; }\n"sv,
       {"line 2: duplicate class 'A'"}},
      {"func f() regs 1 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"
       "func f() regs 1 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 5: duplicate function 'f'"}},
      {"global g: int\n"
       "global g: float\n"sv,
       {"line 3: duplicate global 'g'"}},
      {"method Nope.m(r0) regs 1 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 1: method on unknown class in 'Nope.m'"}},
      {"method m(r0) regs 1 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 1: method name must be Class.name"}},
      {"func f(r1) regs 2 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 1: parameters must be r0, r1, ... in order"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  ret\n"
       "# trailing comment { }\n"
       "\n"
       "\n"sv,
       {"line 7: expected '}'"}},
      {"func main() regs 1\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 2: expected '{'"}},
      {"class N { v: int; }\n"
       "func main() regs 2 {\n"
       "bb0:\n"
       "  r0 = new N\n"
       "  r1 = r0.N::nope\n"
       "  ret\n"
       "}\n"sv,
       {"line 6: class N has no field 'nope'",
        "line 6: expected '}'"}},
      {"class A { v: int; }\n"
       "class B { v: int; }\n"
       "func main() regs 2 {\n"
       "bb0:\n"
       "  r0 = new A\n"
       "  r1 = r0.v\n"
       "  ret\n"
       "}\n"sv,
       {"line 7: field 'v' is unknown or ambiguous; qualify as Class::field",
        "line 7: expected '}'"}},
      {"class A { v: Missing; }\n"sv,
       {"line 1: unknown type 'Missing'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = add r5, r6\n"
       "  r0 = iconst 1\n"
       "}\n"sv,
       {"in main: lhs register r5 out of range (frame has 1)",
        "in main: rhs register r6 out of range (frame has 1)",
        "in main: bb0 does not end with a terminator"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"
       "42\n"sv,
       {"line 5: expected top-level declaration"}},
      {"global g: int[\n"
       "global g: int\n"sv,
       {"line 2: expected ']'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r70000 = iconst 1\n"
       "  ret\n"
       "}\n"sv,
       {"line 3: register index too large",
        "line 3: expected '}'"}},
      {"func main() regs 2 {\n"
       "bb0:\n"
       "  r0 = iconst 1\n"
       "  r1 = newarray bogus, r0\n"
       "  ret\n"
       "}\n"sv,
       {"line 4: unknown array element kind 'bogus'",
        "line 4: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = vcall m()\n"
       "  ret\n"
       "}\n"sv,
       {"line 4: vcall needs a receiver argument",
        "line 4: expected '}'"}},
      {"func main() regs 2 {\n"
       "bb0:\n"
       "  if r0 = r1 goto bb0 else bb0\n"
       "}\n"sv,
       {"line 3: expected comparison operator",
        "line 3: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = fconst x\n"
       "  ret\n"
       "}\n"sv,
       {"line 3: expected float literal",
        "line 3: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = iconst\n"
       "  ret\n"
       "}\n"sv,
       {"line 4: expected integer literal",
        "line 4: expected '}'"}},
      {"func main() regs 1 {\n"
       "  r0 = iconst 1\n"
       "}\n"sv,
       {"line 3: statement before first block label"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = @missing\n"
       "  @other = r0\n"
       "  ret\n"
       "}\n"sv,
       {"line 4: unknown global 'missing'",
        "line 4: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = call nope()\n"
       "  ret\n"
       "}\n"sv,
       {"line 4: call to unknown function 'nope'",
        "line 4: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  ncall sink(r0 r0)\n"
       "  ret\n"
       "}\n"sv,
       {"line 3: expected ')'",
        "line 3: expected '}'"}},
      {"class A { x: int }\n"
       "class B { y: int; }\n"sv,
       {"line 1: expected ';'"}},
      {"func main() regs 3 {\n"
       "bb0:\n"
       "  r0 = sub r1 - r2\n"
       "  ret\n"
       "}\n"sv,
       {"line 3: unexpected character '-'"}},

  };
  for (const Case &C : Cases) {
    std::vector<std::string> Errors;
    std::unique_ptr<Module> M = parseModule(C.Text, Errors);
    EXPECT_EQ(M, nullptr) << C.Text;
    EXPECT_EQ(Errors, C.Errors) << C.Text;
  }
}

TEST(ParserTest, RejectsWhatItOnceReinterpreted) {
  // Labels, register counts and integer literals the parser used to read
  // as something else, or abort on, are line-numbered errors.
  struct Case {
    std::string_view Text;
    std::vector<std::string> Errors;
  };
  const Case Cases[] = {
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  goto bbfoo\n"
       "}\n"sv,
       {"line 3: malformed block label 'bbfoo' (expected bbN)",
        "line 3: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  goto bb1x\n"
       "bb1:\n"
       "  ret\n"
       "}\n"sv,
       {"line 3: malformed block label 'bb1x' (expected bbN)",
        "line 3: expected '}'"}},
      {"func main() regs 1 {\n"
       "bbfoo:\n"
       "  ret\n"
       "}\n"sv,
       {"line 2: malformed block label 'bbfoo' (expected bbN)",
        "line 2: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  goto bb4000000000\n"
       "}\n"sv,
       {"line 3: block label 'bb4000000000' out of range (at most bb65534)",
        "line 3: expected '}'"}},
      {"func main() regs 2 {\n"
       "bb0:\n"
       "  if r0 < r1 goto bb65535 else bb0\n"
       "}\n"sv,
       {"line 3: block label 'bb65535' out of range (at most bb65534)",
        "line 3: expected '}'"}},
      {"func main() regs -1 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 1: register count '-1' out of range (at most 65535)"}},
      {"func main() regs 4000000000 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 1: register count '4000000000' out of range (at most 65535)"}},
      {"func main() regs 65536 {\n"
       "bb0:\n"
       "  ret\n"
       "}\n"sv,
       {"line 1: register count '65536' out of range (at most 65535)"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = iconst 99999999999999999999\n"
       "  ret r0\n"
       "}\n"sv,
       {"line 3: integer literal '99999999999999999999' out of range",
        "line 3: expected '}'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  r0 = iconst -9223372036854775809\n"
       "  ret r0\n"
       "}\n"sv,
       {"line 3: integer literal '-9223372036854775809' out of range",
        "line 3: expected '}'"}},
      // A label jumped to but never defined is named once, at its first
      // jump, however many jumps and gap blocks there are.
      {"func main() regs 2 {\n"
       "bb0:\n"
       "  if r0 < r1 goto bb7 else bb1\n"
       "bb1:\n"
       "  if r0 < r1 goto bb7 else bb9\n"
       "}\n"sv,
       {"line 3: jump to undefined label 'bb7'",
        "line 5: jump to undefined label 'bb9'"}},
      {"func main() regs 1 {\n"
       "bb0:\n"
       "  goto bb1\n"
       "bb2:\n"
       "  ret\n"
       "}\n"sv,
       {"line 3: jump to undefined label 'bb1'"}},
  };
  for (const Case &C : Cases) {
    std::vector<std::string> Errors;
    std::unique_ptr<Module> M = parseModule(C.Text, Errors);
    EXPECT_EQ(M, nullptr) << C.Text;
    EXPECT_EQ(Errors, C.Errors) << C.Text;
  }
}

TEST(ParserTest, AcceptsTheLimits) {
  // The largest register count and label, and both ends of int64.
  auto M = parseOrDie(R"(
func f() regs 65535 {
bb0:
  r65534 = iconst 1
  ret r65534
}
func main() regs 2 {
bb0:
  r0 = iconst -9223372036854775808
  r1 = iconst 9223372036854775807
  r0 = add r0, r1
  ret r0
}
)");
  ASSERT_TRUE(M);
  EXPECT_EQ(runMain(*M), -1);
  std::string Labels = "func main() regs 1 {\n";
  for (uint32_t B = 0; B <= 65534; ++B)
    Labels += "bb" + std::to_string(B) + ":\n  goto bb" +
              std::to_string(B == 65534 ? 0 : B + 1) + "\n";
  Labels += "}\n";
  M = parseOrDie(Labels);
  ASSERT_TRUE(M);
  EXPECT_EQ(M->getFunction(0)->blocks().size(), 65535u);
}

TEST(ParserTest, LineNumbersSurviveSkippedBodies) {
  // The declaration pass skips bodies without lexing them unless a byte
  // needs the lexer's judgement ('+' here); either way the next header's
  // line number is exact.
  for (const char *Extra : {"", "  r1 = fconst 1e+20\n"}) {
    std::string Text = "func f() regs 2 {\nbb0:\n";
    unsigned Line = 3;
    for (int I = 0; I != 500; ++I, ++Line)
      Text += I % 3 ? "  r0 = iconst -7\t# { braces } in a comment\r\n"
                    : "  if r0 != r1 goto bb0 else bb0\n";
    Text += Extra;
    Line += *Extra != 0;
    Text += "  ret\n}\nfunc f() regs 1 {\nbb0:\n  ret\n}\n";
    std::vector<std::string> Errors;
    EXPECT_EQ(parseModule(Text, Errors), nullptr);
    EXPECT_EQ(Errors, std::vector<std::string>{"line " +
                                               std::to_string(Line + 2) +
                                               ": duplicate function 'f'"});
  }
}

TEST(ParserTest, MutatedChartNeverCrashes) {
  // Truncations and single-byte flips of a real program: each mutant
  // parses to a verified module or yields at least one diagnostic.
  std::string Chart;
  ASSERT_TRUE(readFileBytes(LUD_EXAMPLE_PROGRAMS "/chart.lud", Chart));
  ASSERT_GT(Chart.size(), 1000u);
  auto Check = [](const std::string &Text, const std::string &What) {
    std::vector<std::string> Errors;
    std::unique_ptr<Module> M = parseModule(Text, Errors);
    if (M) {
      EXPECT_TRUE(Errors.empty()) << What;
      std::vector<std::string> VerifyErrors;
      EXPECT_TRUE(verifyModule(*M, VerifyErrors)) << What;
    } else {
      EXPECT_FALSE(Errors.empty()) << What;
    }
  };
  for (size_t Len = 0; Len < Chart.size(); Len += 7)
    Check(Chart.substr(0, Len), "truncated to " + std::to_string(Len));
  // Flips favour the bytes the grammar turns on.
  const std::string_view Pivots = "{}():;,.=<>!@#-+rb0123456789\n \xff";
  RNG R(17);
  for (int I = 0; I != 3000; ++I) {
    std::string Text = Chart;
    size_t Pos = R.nextBelow(Text.size());
    char Byte = R.nextBelow(2) ? Pivots[R.nextBelow(Pivots.size())]
                               : char(R.nextBelow(256));
    Text[Pos] = Byte;
    Check(Text, "byte " + std::to_string(Pos) + " set to " +
                    std::to_string(uint8_t(Byte)));
  }
}

TEST(ParserTest, VerifierRejectsBadRegisters) {
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = parseModule(
      "func main() regs 1 {\nbb0:\n  r0 = add r5, r6\n  ret\n}\n", Errors);
  EXPECT_EQ(M, nullptr);
  ASSERT_FALSE(Errors.empty());
  EXPECT_NE(Errors[0].find("out of range"), std::string::npos);
}

} // namespace
