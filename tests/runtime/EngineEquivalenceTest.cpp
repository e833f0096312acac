//===- tests/runtime/EngineEquivalenceTest.cpp - interp vs threaded -------===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
// The threaded engine's contract (runtime/ThreadedEngine.h): byte-identical
// observable behavior to the reference interpreter — same profiler hook
// stream, same trap and budget ordering, same run facts — under every
// pipeline the drivers compose. These tests hold both backends to it across
// all DaCapo analogues with every client enabled, through record -> replay,
// across the sharded driver's thread/shard matrix, and on the trap/budget
// edge cases where an off-by-one in the dispatch loop would first show.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "profiling/GraphIO.h"
#include "runtime/ComposedProfiler.h"
#include "runtime/Natives.h"
#include "runtime/ThreadedEngine.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/ParallelDriver.h"

#include <gtest/gtest.h>

using namespace lud;

namespace {

void expectSameRun(const RunResult &A, const RunResult &B,
                   const std::string &What) {
  EXPECT_EQ(int(A.Status), int(B.Status)) << What;
  EXPECT_EQ(int(A.Trap), int(B.Trap)) << What;
  EXPECT_EQ(A.TrapInstr, B.TrapInstr) << What;
  EXPECT_EQ(A.TrapReg, B.TrapReg) << What;
  EXPECT_EQ(A.ExecutedInstrs, B.ExecutedInstrs) << What;
  EXPECT_EQ(A.Calls, B.Calls) << What;
  EXPECT_EQ(A.PeakFrameDepth, B.PeakFrameDepth) << What;
  EXPECT_EQ(A.SinkHash, B.SinkHash) << What;
  EXPECT_EQ(A.ObjectsAllocated, B.ObjectsAllocated) << What;
  EXPECT_EQ(int(A.ReturnValue.Kind), int(B.ReturnValue.Kind)) << What;
  EXPECT_EQ(valueBits(A.ReturnValue), valueBits(B.ReturnValue)) << What;
}

/// Everything a full-client session produces that the other engine must
/// reproduce byte for byte.
struct Snap {
  RunResult Run;
  std::string Graph;
  std::string Reports;
};

Snap snapshot(const ProfileSession &S, const Module &M, const RunResult &R) {
  Snap Out;
  Out.Run = R;
  StringOutStream G;
  if (S.slicing())
    writeGraph(FrozenGraph(S.slicing()->graph()), G);
  Out.Graph = G.str();
  StringOutStream Rep;
  S.printClientReports(M, Rep);
  Out.Reports = Rep.str();
  return Out;
}

SessionConfig fullClientConfig(EngineKind E) {
  SessionConfig SC;
  SC.Engine = E;
  SC.Clients = ClientSet::all();
  return SC;
}

Snap liveSnap(const Module &M, EngineKind E) {
  ProfileSession S(fullClientConfig(E));
  TimedRun R = S.run(M);
  return snapshot(S, M, R.Run);
}

void expectSameSnap(const Snap &A, const Snap &B, const std::string &What) {
  expectSameRun(A.Run, B.Run, What);
  EXPECT_EQ(A.Graph, B.Graph) << What << ": Gcost serialization differs";
  EXPECT_EQ(A.Reports, B.Reports) << What << ": client reports differ";
}

/// Uninstrumented run on one engine; returns the raw RunResult.
RunResult bareRun(const Module &M, EngineKind E, RunConfig Cfg = {}) {
  ComposedProfiler<> P;
  Heap H;
  return runWithEngine(E, M, H, P, Cfg);
}

// Every DaCapo analogue, every client enabled: Gcost bytes, client report
// bytes and all run facts must agree between the engines.
TEST(EngineEquivalence, DaCapoWorkloadsByteIdentical) {
  for (const std::string &Name : dacapoNames()) {
    Workload W = buildWorkload(Name, 80);
    Snap I = liveSnap(*W.M, EngineKind::Interp);
    Snap T = liveSnap(*W.M, EngineKind::Threaded);
    EXPECT_FALSE(I.Graph.empty()) << Name;
    expectSameSnap(I, T, Name);
  }
}

// A trace recorded on the threaded engine replays into the same profiler
// state as a live interpreted run (and vice versa): the hook streams are
// interchangeable, not merely equivalent in aggregate.
TEST(EngineEquivalence, RecordOnOneEngineReplayMatchesOther) {
  Workload W = buildWorkload("chart", 120);
  for (EngineKind RecordOn : {EngineKind::Interp, EngineKind::Threaded}) {
    EngineKind Other = RecordOn == EngineKind::Interp ? EngineKind::Threaded
                                                      : EngineKind::Interp;
    StringOutStream Sink;
    SessionConfig RC = fullClientConfig(RecordOn);
    RC.RecordSink = &Sink;
    ProfileSession Rec(RC);
    TimedRun Live = Rec.run(*W.M);
    ASSERT_TRUE(Rec.recordError().empty());
    Snap LiveSnap = snapshot(Rec, *W.M, Live.Run);

    ProfileSession Rep(fullClientConfig(Other));
    ReplayRun RR = Rep.replay(*W.M, Sink.str());
    ASSERT_TRUE(RR.Ok) << RR.Error;
    Snap Replayed = snapshot(Rep, *W.M, Live.Run);
    EXPECT_EQ(LiveSnap.Graph, Replayed.Graph)
        << "recorded on " << engineKindName(RecordOn);
    EXPECT_EQ(LiveSnap.Reports, Replayed.Reports)
        << "recorded on " << engineKindName(RecordOn);
  }
}

// The sharded driver's fold invariant holds on the threaded engine at every
// thread/shard combination, against a sequential interpreted reference.
TEST(EngineEquivalence, ShardedMatrixMatchesSequentialInterp) {
  Workload W = buildWorkload("fop", 100);
  for (unsigned Shards : {1u, 8u}) {
    ProfileSession Seq(fullClientConfig(EngineKind::Interp));
    TimedRun Last{};
    for (unsigned I = 0; I != Shards; ++I)
      Last = Seq.run(*W.M);
    Snap Ref = snapshot(Seq, *W.M, Last.Run);
    for (unsigned Threads : {1u, 4u}) {
      ShardedSession Sh = runShardedSession(
          *W.M, Shards, fullClientConfig(EngineKind::Threaded), Threads);
      ASSERT_TRUE(Sh.Error.empty()) << Sh.Error;
      ASSERT_NE(Sh.Session, nullptr);
      std::string What = "shards=" + std::to_string(Shards) +
                         " threads=" + std::to_string(Threads);
      EXPECT_EQ(Sh.TotalInstrs, uint64_t(Shards) * Ref.Run.ExecutedInstrs)
          << What;
      Snap Got = snapshot(*Sh.Session, *W.M, Sh.Run);
      expectSameSnap(Ref, Got, What);
    }
  }
}

// Trap parity: the trapping instruction is counted, the trap identity and
// faulting register match, and everything executed before it agrees.
TEST(EngineEquivalence, TrapFactsMatch) {
  struct Case {
    const char *Name;
    void (*Build)(IRBuilder &B);
  };
  const Case Cases[] = {
      {"div-by-zero",
       [](IRBuilder &B) {
         Reg L = B.iconst(7), Z = B.iconst(0);
         B.ret(B.bin(BinOp::Div, L, Z));
       }},
      {"rem-by-zero",
       [](IRBuilder &B) {
         Reg L = B.iconst(7), Z = B.iconst(0);
         B.ret(B.bin(BinOp::Rem, L, Z));
       }},
      {"null-load",
       [](IRBuilder &B) {
         Reg N = B.nullconst();
         B.ret(B.loadField(N, ClassId(0), "v"));
       }},
      {"oob-elem",
       [](IRBuilder &B) {
         Reg Len = B.iconst(2), Idx = B.iconst(5);
         Reg A = B.allocArray(TypeKind::Int, Len);
         B.ret(B.loadElem(A, Idx));
       }},
      {"neg-array-len",
       [](IRBuilder &B) {
         Reg Len = B.iconst(-3);
         Reg A = B.allocArray(TypeKind::Int, Len);
         B.ret(B.arrayLen(A));
       }},
      {"array-len-2^32",
       [](IRBuilder &B) {
         Reg Len = B.iconst(int64_t(1) << 32);
         Reg A = B.allocArray(TypeKind::Int, Len);
         B.ret(B.arrayLen(A));
       }},
      {"array-len-2^32+5",
       [](IRBuilder &B) {
         // Once truncated to 5 on both engines.
         Reg Len = B.iconst(4294967301);
         Reg A = B.allocArray(TypeKind::Int, Len);
         B.ret(B.arrayLen(A));
       }},
      {"stack-overflow",
       [](IRBuilder &B) {
         // main calls itself forever.
         B.callVoid("main", {});
         B.ret();
       }},
  };
  for (const Case &C : Cases) {
    Module M;
    IRBuilder B(M);
    ClassDecl *Box = M.addClass("Box");
    Box->addField("v", Type::makeInt());
    B.beginFunction("main", 0);
    C.Build(B);
    B.endFunction();
    M.finalize();
    RunResult I = bareRun(M, EngineKind::Interp);
    RunResult T = bareRun(M, EngineKind::Threaded);
    EXPECT_EQ(int(I.Status), int(RunStatus::Trapped)) << C.Name;
    expectSameRun(I, T, C.Name);
  }
}

// Budget parity at every boundary around a loop's instruction count:
// BudgetExceeded fires before instruction N+1 on both engines, with
// identical executed counts.
TEST(EngineEquivalence, BudgetBoundariesMatch) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg I = B.iconst(0), One = B.iconst(1), Lim = B.iconst(10);
  BasicBlock *Head = B.newBlock(), *Body = B.newBlock(),
             *Exit = B.newBlock();
  B.br(Head);
  B.setBlock(Head);
  B.condBr(CmpOp::Lt, I, Lim, Body, Exit);
  B.setBlock(Body);
  B.binInto(I, BinOp::Add, I, One);
  B.br(Head);
  B.setBlock(Exit);
  B.ret(I);
  B.endFunction();
  M.finalize();

  RunResult Full = bareRun(M, EngineKind::Interp);
  ASSERT_EQ(int(Full.Status), int(RunStatus::Finished));
  for (uint64_t Budget :
       {uint64_t(0), uint64_t(1), uint64_t(2), uint64_t(7),
        Full.ExecutedInstrs - 1, Full.ExecutedInstrs,
        Full.ExecutedInstrs + 1}) {
    RunConfig Cfg;
    Cfg.MaxInstructions = Budget;
    RunResult I = bareRun(M, EngineKind::Interp, Cfg);
    RunResult T = bareRun(M, EngineKind::Threaded, Cfg);
    expectSameRun(I, T, "budget=" + std::to_string(Budget));
    if (Budget < Full.ExecutedInstrs) {
      EXPECT_EQ(int(T.Status), int(RunStatus::BudgetExceeded));
      EXPECT_EQ(T.ExecutedInstrs, Budget);
    }
  }
}

// Float semantics ride the same promotion rules: mixed int/float
// arithmetic, comparisons and conversions produce bit-identical results.
TEST(EngineEquivalence, FloatPromotionMatches) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg F = B.fconst(2.5), I = B.iconst(3);
  Reg S = B.bin(BinOp::Add, F, I);        // float + int -> float
  Reg P = B.bin(BinOp::Mul, S, F);        // float * float
  Reg C = B.bin(BinOp::CmpLt, I, P);      // int < float -> promoted cmp
  Reg D = B.bin(BinOp::Div, P, F);        // float division
  Reg R1 = B.bin(BinOp::Rem, P, F);       // fmod path
  Reg Conv = B.un(UnOp::F2I, D);          // back to int
  Reg Bits = B.un(UnOp::FBits, R1);       // raw bits
  Reg Acc = B.bin(BinOp::Add, Conv, Bits);
  Reg Acc2 = B.bin(BinOp::Add, Acc, C);
  B.ret(Acc2);
  B.endFunction();
  M.finalize();
  RunResult I1 = bareRun(M, EngineKind::Interp);
  RunResult T1 = bareRun(M, EngineKind::Threaded);
  EXPECT_EQ(int(I1.Status), int(RunStatus::Finished));
  expectSameRun(I1, T1, "float-promotion");
}

// Repeated run() calls on one engine instance accumulate counters exactly
// like the interpreter's (the sequential-reuse semantics the sharded fold
// depends on).
TEST(EngineEquivalence, RepeatedRunsAccumulate) {
  Workload W = buildWorkload("batik", 60);
  ComposedProfiler<> PI, PT;
  Heap HI, HT;
  Interpreter<ComposedProfiler<>> Interp(*W.M, HI, PI);
  ThreadedEngine<ComposedProfiler<>> Threaded(*W.M, HT, PT);
  for (int K = 0; K != 3; ++K) {
    RunResult A = Interp.run();
    RunResult B = Threaded.run();
    expectSameRun(A, B, "iteration " + std::to_string(K));
  }
}

} // namespace
