//===- tests/profiling/ShadowMachineTest.cpp - Shared shadow state ---------===//

#include "profiling/ShadowMachine.h"

#include <gtest/gtest.h>

#include <memory>

using namespace lud;

namespace {

constexpr int kNull = -1;

std::unique_ptr<CallInst> call(std::vector<Reg> Args) {
  return std::unique_ptr<CallInst>(
      CallInst::makeDirect(kNoReg, 0, std::move(Args)));
}

TEST(ShadowMachineTest, ReenteredFrameHoldsOnlyTheActuals) {
  Heap H;
  ShadowMachine<int> Sh(kNull);
  Sh.startRun(H, 0);
  Sh.enterEntry(4);
  for (int R = 0; R != 4; ++R)
    Sh.regs()[R] = 100 + R;

  // First visit to depth 1 fills every callee register.
  auto TwoArgs = call({3, 1});
  Sh.pushFrame(*TwoArgs, 6);
  for (int R = 0; R != 6; ++R)
    Sh.regs()[R] = 200 + R;
  ASSERT_TRUE(Sh.popFrame());

  // Re-entering depth 1 reuses that buffer: the parameters get the
  // actuals, every other register the null value, whatever the old frame
  // held there.
  auto OneArg = call({2});
  Sh.pushFrame(*OneArg, 5);
  EXPECT_EQ(Sh.regs()[0], 102);
  for (int R = 1; R != 5; ++R)
    EXPECT_EQ(Sh.regs()[R], kNull) << "register " << R;
  ASSERT_TRUE(Sh.popFrame());

  // Popping returns to the caller's registers, and the entry frame stays.
  EXPECT_EQ(Sh.regs()[3], 103);
  EXPECT_FALSE(Sh.popFrame());
  EXPECT_EQ(Sh.regs()[3], 103);
}

TEST(ShadowMachineTest, CallerRegistersSurvivePoolGrowth) {
  Heap H;
  ShadowMachine<int> Sh(kNull);
  Sh.startRun(H, 0);
  Sh.enterEntry(2);
  Sh.regs()[0] = 7;
  auto Recurse = call({0});
  // Each push at a new depth grows the frame pool, which moves the inner
  // frame vectors; every caller's register pointer must still read its
  // own frame.
  constexpr int Depth = 100;
  std::vector<const int *> Callers;
  for (int D = 0; D != Depth; ++D) {
    Callers.push_back(Sh.regs());
    Sh.pushFrame(*Recurse, 2);
    EXPECT_EQ(Sh.regs()[0], 7 + D);
    Sh.regs()[0] = 7 + D + 1;
    EXPECT_EQ(Sh.regs()[1], kNull);
  }
  for (int D = Depth - 1; D >= 0; --D) {
    ASSERT_TRUE(Sh.popFrame());
    EXPECT_EQ(Sh.regs(), Callers[D]);
    EXPECT_EQ(Sh.regs()[0], 7 + D);
  }
}

TEST(ShadowMachineTest, ObjectShadowsGrowWithTheHeap) {
  Heap H;
  ShadowMachine<int, uint64_t> Sh(kNull, 42);
  Sh.startRun(H, 3);
  EXPECT_EQ(Sh.staticAt(2), 42u);

  ObjId A = H.allocObject(0, 2);
  ObjId Arr = H.allocArray(TypeKind::Int, 5);
  // The object table grows to the heap's id bound, not just past A.
  EXPECT_EQ(Sh.objShadow(A).size(), 2u);
  EXPECT_EQ(Sh.objects().size(), H.idBound());
  EXPECT_TRUE(Sh.objects()[Arr].empty());
  Sh.objShadow(A)[1] = 9;

  // An array's shadow has one slot per element, all null.
  std::vector<uint64_t> &Elems = Sh.objShadow(Arr);
  ASSERT_EQ(Elems.size(), 5u);
  for (uint64_t E : Elems)
    EXPECT_EQ(E, 42u);

  ObjId Later = H.allocObject(0, 1);
  EXPECT_EQ(Sh.objShadow(Later).size(), 1u);
  EXPECT_EQ(Sh.objects().size(), H.idBound());
  EXPECT_EQ(Sh.objShadow(A)[1], 9u);

  // A new run drops every object shadow and resets the statics.
  Sh.staticAt(2) = 1;
  Sh.startRun(H, 3);
  EXPECT_TRUE(Sh.objects().empty());
  EXPECT_EQ(Sh.staticAt(2), 42u);
}

} // namespace
