//===- tests/support/SupportTest.cpp - Support utilities -------------------===//

#include "support/Casting.h"
#include "support/OutStream.h"
#include "support/RNG.h"

#include <gtest/gtest.h>

#include <cerrno>

using namespace lud;

namespace {

TEST(OutStreamTest, FormatsScalars) {
  StringOutStream OS;
  OS << "x=" << int64_t(-42) << " y=" << uint64_t(7) << " b=" << true
     << " c=" << 'Z';
  EXPECT_EQ(OS.str(), "x=-42 y=7 b=true c=Z");
}

TEST(OutStreamTest, FixedAndPadded) {
  StringOutStream OS;
  OS.printFixed(3.14159, 2);
  OS << '|';
  OS.padded("ab", 5);
  EXPECT_EQ(OS.str(), "3.14|   ab");
}

TEST(OutStreamTest, ClearResets) {
  StringOutStream OS;
  OS << "hello";
  OS.clear();
  OS << "bye";
  EXPECT_EQ(OS.str(), "bye");
}

TEST(OutStreamTest, StringViewAndStdString) {
  StringOutStream OS;
  std::string S = "abc";
  OS << S << std::string_view("def");
  EXPECT_EQ(OS.str(), "abcdef");
}

TEST(OutStreamTest, ReadErrorIsNotAnEmptyFile) {
  // A directory opens but cannot be read: that is a failure with errno
  // set, not an empty input.
  std::string Bytes = "kept";
  errno = 0;
  EXPECT_FALSE(readFileBytes(::testing::TempDir(), Bytes));
  EXPECT_EQ(errno, EISDIR);
  errno = 0;
  EXPECT_FALSE(readFileBytes(::testing::TempDir() + "/lud-no-such-file",
                             Bytes));
  EXPECT_EQ(errno, ENOENT);
}

TEST(RNGTest, DeterministicForSeed) {
  RNG A(123), B(123), C(124);
  for (int I = 0; I != 100; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    (void)C.next();
  }
  RNG A2(123), C2(124);
  EXPECT_NE(A2.next(), C2.next());
}

TEST(RNGTest, BoundsRespected) {
  RNG R(7);
  for (int I = 0; I != 1000; ++I) {
    uint64_t V = R.nextBelow(17);
    EXPECT_LT(V, 17u);
    int64_t W = R.nextInRange(-5, 5);
    EXPECT_GE(W, -5);
    EXPECT_LE(W, 5);
  }
}

TEST(RNGTest, RangeEndpointsReachable) {
  RNG R(99);
  bool SawLo = false, SawHi = false;
  for (int I = 0; I != 2000 && !(SawLo && SawHi); ++I) {
    int64_t V = R.nextInRange(0, 3);
    SawLo |= V == 0;
    SawHi |= V == 3;
  }
  EXPECT_TRUE(SawLo);
  EXPECT_TRUE(SawHi);
}

// A small classof hierarchy to exercise the casting templates.
struct Shape {
  enum class Kind { Circle, Square } K;
  explicit Shape(Kind K) : K(K) {}
  static bool classof(const Shape *) { return true; }
};
struct Circle : Shape {
  Circle() : Shape(Kind::Circle) {}
  static bool classof(const Shape *S) { return S->K == Kind::Circle; }
};
struct Square : Shape {
  Square() : Shape(Kind::Square) {}
  static bool classof(const Shape *S) { return S->K == Kind::Square; }
};

TEST(CastingTest, IsaCastDynCast) {
  Circle C;
  Shape *S = &C;
  EXPECT_TRUE(isa<Circle>(S));
  EXPECT_FALSE(isa<Square>(S));
  EXPECT_EQ(cast<Circle>(S), &C);
  EXPECT_EQ(dyn_cast<Square>(S), nullptr);
  EXPECT_EQ(dyn_cast<Circle>(S), &C);
  const Shape *CS = &C;
  EXPECT_EQ(cast<Circle>(CS), &C);
  EXPECT_EQ(dyn_cast<Square>(CS), nullptr);
}

} // namespace
