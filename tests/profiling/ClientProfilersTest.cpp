//===- tests/profiling/ClientProfilersTest.cpp - Figure 2's clients --------===//

#include "../TestUtil.h"

#include "analysis/Report.h"
#include "ir/IRBuilder.h"
#include "ir/Parser.h"
#include "profiling/CopyProfiler.h"
#include "profiling/NullnessProfiler.h"
#include "profiling/TypestateProfiler.h"
#include "runtime/ComposedProfiler.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"
#include "workloads/ParallelDriver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <set>
#include <stdexcept>
#include <string>
#include <typeindex>
#include <vector>

using namespace lud;
using namespace lud::test;

namespace {

/// Substrate + copy client composed into one pipeline: the substrate's
/// TagEnv tags the heap the client reads.
struct CopyPipeline {
  SlicingProfiler Sub;
  CopyProfiler P{Sub.config()};
  RunResult run(const Module &M) {
    ComposedProfiler<SlicingProfiler, CopyProfiler> Pipe(Sub, P);
    return runModule(M, Pipe);
  }
};

/// Substrate + typestate client composed into one pipeline.
struct TypestatePipeline {
  SlicingProfiler Sub;
  TypestateProfiler P;
  explicit TypestatePipeline(TypestateSpec Spec)
      : P(std::move(Spec), Sub.config()) {}
  RunResult run(const Module &M) {
    ComposedProfiler<SlicingProfiler, TypestateProfiler> Pipe(Sub, P);
    return runModule(M, Pipe);
  }
};

//===----------------------------------------------------------------------===
// Figure 2(a): null-value propagation.
//===----------------------------------------------------------------------===

TEST(NullnessProfilerTest, TracesNullOriginAndFlow) {
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("g", Type::makeRef());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg N = B.nullconst();
  Instruction *NullConst = B.block()->insts().back().get();
  B.storeField(O, A->getId(), "g", N);
  Reg X = B.loadField(O, A->getId(), "g");
  Reg Y = B.move(X);
  Instruction *Copy = B.block()->insts().back().get();
  Reg V = B.loadField(Y, A->getId(), "g"); // NPE here.
  Instruction *Deref = B.block()->insts().back().get();
  B.ret(V);
  B.endFunction();
  M.finalize();

  NullnessProfiler P;
  RunResult R = runModule(M, P);
  ASSERT_EQ(R.Status, RunStatus::Trapped);
  ASSERT_EQ(R.Trap, TrapKind::NullDeref);
  EXPECT_EQ(R.TrapInstr, Deref->getId());

  NullTrace T = traceNullOrigin(P);
  ASSERT_TRUE(T.found());
  EXPECT_EQ(T.Origin, NullConst->getId());
  // The flow ends at the copy whose value was dereferenced and passes
  // through the heap store/load hops.
  ASSERT_GE(T.Flow.size(), 4u);
  EXPECT_EQ(T.Flow.front(), NullConst->getId());
  EXPECT_EQ(T.Flow.back(), Copy->getId());
}

TEST(NullnessProfilerTest, NoTrapMeansNoTrace) {
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg C = B.iconst(1);
  B.ret(C);
  B.endFunction();
  M.finalize();
  NullnessProfiler P;
  RunResult R = runModule(M, P);
  EXPECT_EQ(R.Status, RunStatus::Finished);
  EXPECT_FALSE(traceNullOrigin(P).found());
}

TEST(NullnessProfilerTest, DomainSplitsNullAndNotNull) {
  // The same load instruction observes null and non-null values across a
  // loop: it gets two abstract nodes, one per domain element.
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("g", Type::makeRef());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg NullR = B.nullconst();
  B.storeField(O, A->getId(), "g", NullR);
  // Loop twice: the load sees null on the first trip, the object on the
  // second.
  Reg I = B.iconst(0);
  Reg Two = B.iconst(2);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, Two, Body, Exit);
  B.setBlock(Body);
  Reg X = B.loadField(O, A->getId(), "g");
  Instruction *Load = B.block()->insts().back().get();
  (void)X;
  B.storeField(O, A->getId(), "g", O);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ret();
  B.endFunction();
  M.finalize();

  NullnessProfiler P;
  RunResult R = runModule(M, P);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  // One static instruction, two abstract nodes: one per domain element.
  NodeId NullNode = P.graph().lookup(Load->getId(), kNullDom);
  NodeId NotNullNode = P.graph().lookup(Load->getId(), kNotNullDom);
  ASSERT_NE(NullNode, kNoNode);
  ASSERT_NE(NotNullNode, kNoNode);
  EXPECT_EQ(P.graph().freq(NullNode), 1u);
  EXPECT_EQ(P.graph().freq(NotNullNode), 1u);
}

//===----------------------------------------------------------------------===
// Figure 2(b): typestate history.
//===----------------------------------------------------------------------===

/// Builds the File protocol module: create/put/close/get on a File object,
/// with `get` called after `close` (the Figure 2(b) violation).
struct FileProgram {
  std::unique_ptr<Module> M;
  ClassId File;
  AllocSiteId Site;
  MethodNameId Create, Put, Close, Get;
};

FileProgram buildFileProgram(bool Violate) {
  FileProgram Out;
  Out.M = std::make_unique<Module>();
  Module &M = *Out.M;
  ClassDecl *File = M.addClass("File");
  File->addField("pos", Type::makeInt());
  Out.File = File->getId();
  IRBuilder B(M);

  for (const char *Name : {"create", "put", "close", "get"}) {
    B.beginMethod(Out.File, Name, 1);
    Reg Pos = B.loadField(0, Out.File, "pos");
    Reg One = B.iconst(1);
    Reg NP = B.add(Pos, One);
    B.storeField(0, Out.File, "pos", NP);
    B.ret(NP);
    B.endFunction();
  }
  Out.Create = M.findMethodName("create");
  Out.Put = M.findMethodName("put");
  Out.Close = M.findMethodName("close");
  Out.Get = M.findMethodName("get");

  B.beginFunction("main", 0);
  Reg F = B.alloc(Out.File);
  Instruction *Alloc = B.block()->insts().back().get();
  B.vcallVoid("create", {F});
  B.vcallVoid("put", {F});
  B.vcallVoid("put", {F});
  if (!Violate) {
    Reg Ch = B.vcall("get", {F});
    B.ncallVoid("sink", {Ch});
  }
  B.vcallVoid("close", {F});
  if (Violate) {
    Reg Ch = B.vcall("get", {F}); // Read after close: violation.
    B.ncallVoid("sink", {Ch});
  }
  B.ret();
  B.endFunction();
  M.finalize();
  Out.Site = cast<AllocInst>(Alloc)->Site;
  return Out;
}

TypestateSpec fileSpec(const FileProgram &P) {
  // States: 0 = uninitialized, 1 = open-empty, 2 = open-nonempty,
  // 3 = closed.
  TypestateSpec Spec;
  Spec.TrackedClasses = {P.File};
  Spec.NumStates = 4;
  Spec.InitialState = 0;
  Spec.addTransition(0, P.Create, 1);
  Spec.addTransition(1, P.Put, 2);
  Spec.addTransition(2, P.Put, 2);
  Spec.addTransition(2, P.Get, 2);
  Spec.addTransition(1, P.Close, 3);
  Spec.addTransition(2, P.Close, 3);
  return Spec;
}

TEST(TypestateProfilerTest, DetectsReadAfterClose) {
  FileProgram Prog = buildFileProgram(/*Violate=*/true);
  TypestatePipeline TP(fileSpec(Prog));
  RunResult R = TP.run(*Prog.M);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  ASSERT_EQ(TP.P.violations().size(), 1u);
  const TypestateViolation &V = TP.P.violations()[0];
  EXPECT_EQ(V.Site, Prog.Site);
  EXPECT_EQ(V.StateBefore, 3u); // closed
  EXPECT_EQ(V.Method, Prog.Get);
}

TEST(TypestateProfilerTest, CleanRunHasNoViolations) {
  FileProgram Prog = buildFileProgram(/*Violate=*/false);
  TypestatePipeline TP(fileSpec(Prog));
  RunResult R = TP.run(*Prog.M);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  EXPECT_TRUE(TP.P.violations().empty());
}

TEST(TypestateProfilerTest, HistoryRecordsNextEventEdges) {
  FileProgram Prog = buildFileProgram(/*Violate=*/true);
  TypestatePipeline TP(fileSpec(Prog));
  TP.run(*Prog.M);
  // create -> put -> put(merged) -> close -> get: at least 3 distinct
  // next-event edges after merging.
  EXPECT_GE(TP.P.eventEdges().size(), 3u);
  std::string History = TP.P.describeHistory(*Prog.M);
  // Edges are labeled with the *target* event's method; the first event
  // (create) appears as a source node in state 0.
  EXPECT_NE(History.find("-put->"), std::string::npos);
  EXPECT_NE(History.find("-close->"), std::string::npos);
  EXPECT_NE(History.find("-get->"), std::string::npos);
  EXPECT_NE(History.find(":s3"), std::string::npos); // the closed state
}

TEST(TypestateProfilerTest, EventsMergeAcrossInstances) {
  // Many objects from one site traverse the protocol: the abstract graph
  // stays the same size as for a single object (bounded domain).
  Module M;
  ClassDecl *File = M.addClass("File");
  File->addField("pos", Type::makeInt());
  IRBuilder B(M);
  for (const char *Name : {"create", "close"}) {
    B.beginMethod(File->getId(), Name, 1);
    B.ret();
    B.endFunction();
  }
  B.beginFunction("main", 0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(50);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  Reg F = B.alloc(File->getId());
  B.vcallVoid("create", {F});
  B.vcallVoid("close", {F});
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ret();
  B.endFunction();
  M.finalize();

  TypestateSpec Spec;
  Spec.TrackedClasses = {File->getId()};
  Spec.NumStates = 3;
  Spec.addTransition(0, M.findMethodName("create"), 1);
  Spec.addTransition(1, M.findMethodName("close"), 2);
  TypestatePipeline TP(Spec);
  TP.run(M);
  EXPECT_TRUE(TP.P.violations().empty());
  // Two abstract event nodes (create@s0, close@s1) despite 50 objects.
  EXPECT_EQ(TP.P.graph().numNodes(), 2u);
  EXPECT_EQ(TP.P.graph().freq(0) + TP.P.graph().freq(1), 100u);
}

//===----------------------------------------------------------------------===
// Figure 2(c): extended copy profiling.
//===----------------------------------------------------------------------===

TEST(CopyProfilerTest, RecordsChainWithStackHops) {
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O1 = B.alloc(A->getId());
  Instruction *Alloc1 = B.block()->insts().back().get();
  Reg O3 = B.alloc(A->getId());
  Instruction *Alloc3 = B.block()->insts().back().get();
  Reg C = B.iconst(7);
  B.storeField(O1, A->getId(), "f", C);
  Reg Bv = B.loadField(O1, A->getId(), "f");
  Instruction *Load = B.block()->insts().back().get();
  Reg C2 = B.move(Bv);
  Instruction *Copy = B.block()->insts().back().get();
  B.storeField(O3, A->getId(), "f", C2);
  Instruction *Store = B.block()->insts().back().get();
  B.ret();
  B.endFunction();
  M.finalize();

  CopyPipeline CP;
  RunResult R = CP.run(M);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  const CopyProfiler &P = CP.P;

  AllocSiteId S1 = cast<AllocInst>(Alloc1)->Site;
  AllocSiteId S3 = cast<AllocInst>(Alloc3)->Site;
  FieldSlot Slot;
  ASSERT_TRUE(M.resolveField(A->getId(), "f", Slot));

  ASSERT_EQ(P.chains().size(), 1u);
  const CopyProfiler::CopyChain &Chain = P.chains()[0];
  EXPECT_EQ(Chain.From.Tag, S1);
  EXPECT_EQ(Chain.From.Slot, Slot);
  EXPECT_EQ(Chain.To.Tag, S3);
  EXPECT_EQ(Chain.To.Slot, Slot);
  EXPECT_EQ(Chain.Count, 1u);

  // The intermediate stack hops: store <- copy <- load.
  std::vector<InstrId> Hops = CopyProfiler::stackHops(FrozenGraph(P.graph()), Chain);
  ASSERT_EQ(Hops.size(), 3u);
  EXPECT_EQ(Hops[0], Store->getId());
  EXPECT_EQ(Hops[1], Copy->getId());
  EXPECT_EQ(Hops[2], Load->getId());
}

TEST(CopyProfilerTest, ComputationBreaksChains) {
  Module M;
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  A->addField("g", Type::makeInt());
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg O = B.alloc(A->getId());
  Reg C = B.iconst(7);
  B.storeField(O, A->getId(), "f", C);
  Reg L = B.loadField(O, A->getId(), "f");
  Reg One = B.iconst(1);
  Reg Sum = B.add(L, One); // Computation: no longer a copy.
  B.storeField(O, A->getId(), "g", Sum);
  B.ret();
  B.endFunction();
  M.finalize();

  CopyPipeline CP;
  CP.run(M);
  EXPECT_TRUE(CP.P.chains().empty());
}

TEST(CopyProfilerTest, CountsAccumulateAcrossIterations) {
  // A loop copying elements between two arrays: one abstract chain with
  // the iteration count.
  Module M;
  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg N = B.iconst(40);
  Reg Src = B.allocArray(TypeKind::Int, N);
  Instruction *SrcAlloc = B.block()->insts().back().get();
  Reg Dst = B.allocArray(TypeKind::Int, N);
  Instruction *DstAlloc = B.block()->insts().back().get();
  Reg I = B.iconst(0);
  Reg One = B.iconst(1);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  Reg V = B.loadElem(Src, I);
  B.storeElem(Dst, I, V);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ret();
  B.endFunction();
  M.finalize();

  CopyPipeline CP;
  CP.run(M);
  const CopyProfiler &P = CP.P;
  ASSERT_EQ(P.chains().size(), 1u);
  EXPECT_EQ(P.chains()[0].Count, 40u);
  EXPECT_EQ(P.chains()[0].From.Tag, cast<AllocArrayInst>(SrcAlloc)->Site);
  EXPECT_EQ(P.chains()[0].To.Tag, cast<AllocArrayInst>(DstAlloc)->Site);
  EXPECT_EQ(P.chains()[0].From.Slot, kElemSlot);
}

TEST(CopyProfilerTest, StaticOriginDoesNotAliasAFieldOfSiteZero) {
  // Global #0 and field slot 0 of allocation site 0 are different
  // origins: the chain into the second A.f starts at the static, two hops
  // back, not at the first A.f four hops back.
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = parseModule(R"(
class A {
  f: int;
}
global g: int

func main() regs 5 {
bb0:
  r0 = new A
  r1 = iconst 7
  r0.A::f = r1
  r2 = r0.A::f
  @g = r2
  r3 = @g
  r4 = new A
  r4.A::f = r3
  ret
}
)",
                                          Errors);
  ASSERT_TRUE(M) << (Errors.empty() ? "" : Errors[0]);
  CopyPipeline CP;
  ASSERT_EQ(CP.run(*M).Status, RunStatus::Finished);
  StringOutStream OS;
  printCopyChains(CP.P, *M, OS);
  EXPECT_NE(OS.str().find("static#0  ->  new A @ main #1.f   x1\n"
                          "    via stack hops:\n"
                          "      main: r4.A::f = r3\n"
                          "      main: r3 = @g\n"),
            std::string::npos)
      << OS.str();
  EXPECT_EQ(OS.str().find("new A @ main #0.f  ->  new A @ main #1.f"),
            std::string::npos)
      << OS.str();
}

//===----------------------------------------------------------------------===
// ComposedProfiler: hook fan-out.
//===----------------------------------------------------------------------===

/// Logs every hook it receives into a shared journal, prefixed by its name.
struct RecordingProfiler : NoopProfiler {
  std::vector<std::string> *Log = nullptr;
  std::string Name;
  RecordingProfiler(std::vector<std::string> *Log, std::string Name)
      : Log(Log), Name(std::move(Name)) {}
  void onRunStart(const Module &, Heap &) { Log->push_back(Name + ":start"); }
  void onConst(const ConstInst &) { Log->push_back(Name + ":const"); }
  void onAlloc(const AllocInst &, ObjId) { Log->push_back(Name + ":alloc"); }
};

/// One const, one alloc, return.
std::unique_ptr<Module> buildTinyProgram() {
  auto M = std::make_unique<Module>();
  ClassDecl *A = M->addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  Reg C = B.iconst(3);
  B.alloc(A->getId());
  B.ret(C);
  B.endFunction();
  M->finalize();
  return M;
}

TEST(ComposedProfilerTest, FansHooksOutInDeclarationOrder) {
  std::unique_ptr<Module> M = buildTinyProgram();
  std::vector<std::string> Log;
  RecordingProfiler A(&Log, "A"), B(&Log, "B");
  ComposedProfiler<RecordingProfiler, RecordingProfiler> Pipe(A, B);
  RunResult R = runModule(*M, Pipe);
  ASSERT_EQ(R.Status, RunStatus::Finished);
  // Every hook reaches every stage, stages in declaration order, events in
  // execution order.
  std::vector<std::string> Expected = {"A:start", "B:start", "A:const",
                                       "B:const", "A:alloc", "B:alloc"};
  EXPECT_EQ(Log, Expected);
}

TEST(ComposedProfilerTest, EveryStageSubsetIsAFixedShapeInDeclarationOrder) {
  // withStages picks the stages once; the pipeline it hands over holds
  // exactly the present ones, so an absent stage sees no hook and a
  // present one every hook, in declaration order.
  std::unique_ptr<Module> M = buildTinyProgram();
  const char *Names[] = {"A", "B", "C"};
  for (unsigned Mask = 0; Mask != 8; ++Mask) {
    std::vector<std::string> Log;
    RecordingProfiler A(&Log, "A"), B(&Log, "B"), C(&Log, "C");
    auto Pick = [&](RecordingProfiler &P, unsigned Bit) {
      return Mask & Bit ? &P : nullptr;
    };
    size_t Stages = 0;
    RunResult R = withStages(
        [&](auto &...S) {
          Stages = sizeof...(S);
          ComposedProfiler<std::remove_reference_t<decltype(S)>...> Pipe(
              S...);
          return runModule(*M, Pipe);
        },
        Pick(A, 1), Pick(B, 2), Pick(C, 4));
    ASSERT_EQ(R.Status, RunStatus::Finished) << Mask;
    EXPECT_EQ(Stages, size_t(std::popcount(Mask))) << Mask;
    std::vector<std::string> Expected;
    for (const char *Event : {"start", "const", "alloc"})
      for (unsigned I = 0; I != 3; ++I)
        if (Mask & (1u << I))
          Expected.push_back(std::string(Names[I]) + ":" + Event);
    EXPECT_EQ(Log, Expected) << Mask;
  }
}

TEST(ComposedProfilerTest, EachClientSetRunsItsOwnInstantiation) {
  // A clients' execution composes exactly its clients behind the TagEnv:
  // seven client sets, seven pipeline types, no stage that is skipped.
  using Copy = CopyProfiler;
  using Null = NullnessProfiler;
  using Type = TypestateProfiler;
  const std::type_index Want[7] = {
      typeid(ComposedProfiler<TagEnv, Copy>),
      typeid(ComposedProfiler<TagEnv, Null>),
      typeid(ComposedProfiler<TagEnv, Copy, Null>),
      typeid(ComposedProfiler<TagEnv, Type>),
      typeid(ComposedProfiler<TagEnv, Copy, Type>),
      typeid(ComposedProfiler<TagEnv, Null, Type>),
      typeid(ComposedProfiler<TagEnv, Copy, Null, Type>)};
  SlicingConfig SC;
  TagEnv Env(SC);
  Copy C(SC);
  Null N(SC.HotPathCaches);
  Type T(TypestateSpec{}, SC);
  std::set<std::type_index> Seen;
  for (unsigned Bits = 1; Bits != 8; ++Bits) {
    ClientSet Set(Bits);
    std::type_index Got = typeid(void);
    withClientPipeline(Env, Set.hasCopy() ? &C : nullptr,
                       Set.hasNullness() ? &N : nullptr,
                       Set.hasTypestate() ? &T : nullptr, [&](auto &P) {
                         Got = typeid(P);
                         return RunResult{};
                       });
    EXPECT_EQ(Got, Want[Bits - 1]) << clientSetName(Set);
    Seen.insert(Got);
  }
  EXPECT_EQ(Seen.size(), 7u);
}

TEST(ComposedProfilerTest, EmptyCompositionMatchesNoopBaseline) {
  std::unique_ptr<Module> M = buildTinyProgram();
  NoopProfiler Noop;
  RunResult RN = runModule(*M, Noop);
  ComposedProfiler<> Empty;
  RunResult RE = runModule(*M, Empty);
  EXPECT_EQ(RE.Status, RN.Status);
  EXPECT_EQ(RE.ExecutedInstrs, RN.ExecutedInstrs);
  EXPECT_EQ(RE.ReturnValue.asInt(), RN.ReturnValue.asInt());
  EXPECT_EQ(RE.SinkHash, RN.SinkHash);
}

//===----------------------------------------------------------------------===
// ProfileSession: every client beside the substrate.
//===----------------------------------------------------------------------===

/// A program exercising all three clients: a heap-to-heap copy chain, a
/// typestate violation (get after close), and finally a null dereference.
struct TripleProgram {
  std::unique_ptr<Module> M;
  TypestateSpec Spec;
};

TripleProgram buildTripleProgram() {
  TripleProgram Out;
  Out.M = std::make_unique<Module>();
  Module &M = *Out.M;

  ClassDecl *FileC = M.addClass("File");
  FileC->addField("pos", Type::makeInt());
  ClassDecl *A = M.addClass("A");
  A->addField("f", Type::makeInt());
  IRBuilder B(M);
  for (const char *Name : {"create", "put", "close", "get"}) {
    B.beginMethod(FileC->getId(), Name, 1);
    Reg Pos = B.loadField(0, FileC->getId(), "pos");
    Reg One = B.iconst(1);
    Reg NP = B.add(Pos, One);
    B.storeField(0, FileC->getId(), "pos", NP);
    B.ret(NP);
    B.endFunction();
  }

  B.beginFunction("main", 0);
  // Copy chain: A.f -> A.f through a register move.
  Reg O1 = B.alloc(A->getId());
  Reg O2 = B.alloc(A->getId());
  Reg C = B.iconst(7);
  B.storeField(O1, A->getId(), "f", C);
  Reg L = B.loadField(O1, A->getId(), "f");
  Reg Mv = B.move(L);
  B.storeField(O2, A->getId(), "f", Mv);
  // Typestate violation: get after close.
  Reg F = B.alloc(FileC->getId());
  B.vcallVoid("create", {F});
  B.vcallVoid("put", {F});
  B.vcallVoid("close", {F});
  Reg Ch = B.vcall("get", {F});
  B.ncallVoid("sink", {Ch});
  // Null dereference: terminates the run in a trap.
  Reg Nl = B.nullconst();
  Reg X = B.loadField(Nl, A->getId(), "f");
  B.ret(X);
  B.endFunction();
  M.finalize();

  TypestateSpec Spec;
  Spec.TrackedClasses = {FileC->getId()};
  Spec.NumStates = 4;
  Spec.InitialState = 0;
  Spec.addTransition(0, M.findMethodName("create"), 1);
  Spec.addTransition(1, M.findMethodName("put"), 2);
  Spec.addTransition(2, M.findMethodName("put"), 2);
  Spec.addTransition(2, M.findMethodName("get"), 2);
  Spec.addTransition(1, M.findMethodName("close"), 3);
  Spec.addTransition(2, M.findMethodName("close"), 3);
  Out.Spec = Spec;
  return Out;
}

std::string renderClients(const ProfileSession &S, const Module &M) {
  StringOutStream OS;
  S.printClientReports(M, OS);
  return OS.str();
}

TEST(ProfileSessionTest, SinglePassMatchesSeparatePasses) {
  TripleProgram Prog = buildTripleProgram();

  SessionConfig All;
  All.Clients = ClientSet::all();
  All.Typestate = Prog.Spec;
  ProfileSession SAll(All);
  RunResult R = SAll.run(*Prog.M).Run;
  EXPECT_EQ(R.Status, RunStatus::Trapped);
  std::string OnePass = renderClients(SAll, *Prog.M);

  // Each client alone, three separate interpretation passes; sections
  // concatenate in the same copy/nullness/typestate order the session
  // prints them in.
  std::string Separate;
  for (ClientSet Client : {ClientSet::copy(), ClientSet::nullness(),
                           ClientSet::typestate()}) {
    SessionConfig One;
    One.Clients = Client;
    One.Typestate = Prog.Spec;
    ProfileSession S(One);
    S.run(*Prog.M);
    Separate += renderClients(S, *Prog.M);
  }

  // The acceptance bar: byte-identical per-client reports.
  EXPECT_EQ(OnePass, Separate);
  // And they actually found the planted defects.
  EXPECT_NE(OnePass.find("copy chains"), std::string::npos);
  EXPECT_NE(OnePass.find("propagation flow"), std::string::npos);
  EXPECT_NE(OnePass.find("VIOLATION"), std::string::npos);
}

TEST(ProfileSessionTest, EveryClientSetMatchesAllClientsAtEveryPlacement) {
  // Each client set runs its own pipeline instantiation, split or not by
  // the placement; its report sections must be the all-clients run's.
  TripleProgram Prog = buildTripleProgram();
  Workload W = buildWorkload("pmd", 24);
  const std::pair<const Module *, TypestateSpec> Programs[] = {
      {Prog.M.get(), Prog.Spec}, {W.M.get(), TypestateSpec{}}};
  for (const auto &[M, Spec] : Programs) {
    for (test::Placement Where : test::kPlacements) {
      SessionConfig Cfg;
      Cfg.Clients = ClientSet::all();
      Cfg.Typestate = Spec;
      ProfileSession All(Cfg);
      {
        test::PlaceClients Held(Where);
        ASSERT_TRUE(All.run(*M).Error.empty());
      }
      for (unsigned Bits = 1; Bits != 8; ++Bits) {
        Cfg.Clients = ClientSet(Bits);
        ProfileSession One(Cfg);
        {
          test::PlaceClients Held(Where);
          ASSERT_TRUE(One.run(*M).Error.empty());
        }
        StringOutStream Want;
        printClientSections(Cfg.Clients, All.copy(), All.nullness(),
                            All.typestate(), *M, Want);
        EXPECT_EQ(renderClients(One, *M), Want.str())
            << clientSetName(Cfg.Clients) << ", "
            << test::placementName(Where);
      }
    }
  }
}

/// `main` returns `ncall tick()`; each test binds `tick` in its own
/// registry.
std::unique_ptr<Module> buildTickProgram() {
  auto M = std::make_unique<Module>();
  IRBuilder B(*M);
  B.beginFunction("main", 0);
  Reg V = B.ncall("tick", {});
  B.ret(V);
  B.endFunction();
  M->finalize();
  return M;
}

std::atomic<int64_t> TickCount{0};

TEST(ProfileSessionTest, DivergentClientExecutionIsAnError) {
  // A native with state outside the run answers the two executions
  // differently; the session must say so rather than pair the substrate's
  // run with clients that saw another one — whether the clients ran as two
  // executions on threads of their own, as one on one thread or, with no
  // core spare, after the substrate.
  NativeRegistry Natives;
  Natives.add({"tick",
               [](NativeContext &, const Value *, size_t) {
                 return Value::makeInt(TickCount++);
               },
               /*IsConsumer=*/false, /*HasResult=*/true});
  std::unique_ptr<Module> M = buildTickProgram();
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  Cfg.Run.Natives = &Natives;
  for (test::Placement P : test::kPlacements) {
    test::PlaceClients Held(P);
    ProfileSession S(Cfg);
    TimedRun R = S.run(*M);
    EXPECT_EQ(R.Run.Status, RunStatus::Finished);
    EXPECT_NE(R.Error.find("client execution diverged from the substrate's: "
                           "return value"),
              std::string::npos)
        << test::placementName(P) << ": " << R.Error;

    // The sharded driver reports it as the shard's error.
    ShardedSession Sh = runShardedSession(*M, 2, Cfg, /*Threads=*/1);
    EXPECT_NE(Sh.Error.find("client execution diverged"), std::string::npos)
        << Sh.Error;
  }
}

TEST(ProfileSessionTest, ClientExecutionExceptionIsRethrown) {
  // Only the clients' execution runs without a print stream, so only it
  // throws; the session rethrows on the caller in every placement.
  NativeRegistry Natives;
  Natives.add({"tick",
               [](NativeContext &Ctx, const Value *, size_t) {
                 if (!Ctx.Print)
                   throw std::runtime_error("tick in the clients' execution");
                 return Value::makeInt(1);
               },
               /*IsConsumer=*/false, /*HasResult=*/true});
  std::unique_ptr<Module> M = buildTickProgram();
  StringOutStream Out;
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  Cfg.Run.Natives = &Natives;
  Cfg.Run.PrintStream = &Out;
  for (test::Placement P : test::kPlacements) {
    test::PlaceClients Held(P);
    ProfileSession S(Cfg);
    EXPECT_THROW(S.run(*M), std::runtime_error) << test::placementName(P);
  }
}

TEST(ProfileSessionTest, ShardedFoldIsThreadCountInvariant) {
  TripleProgram Prog = buildTripleProgram();
  SessionConfig Cfg;
  Cfg.Clients = ClientSet::all();
  Cfg.Typestate = Prog.Spec;

  ShardedSession Seq = runShardedSession(*Prog.M, 4, Cfg, /*Threads=*/1);
  ShardedSession Par = runShardedSession(*Prog.M, 4, Cfg, /*Threads=*/4);
  ASSERT_TRUE(Seq.Session && Par.Session);

  // Substrate graphs agree...
  const DepGraph &GS = Seq.Session->slicing()->graph();
  const DepGraph &GP = Par.Session->slicing()->graph();
  EXPECT_EQ(GS.numNodes(), GP.numNodes());
  EXPECT_EQ(GS.numEdges(), GP.numEdges());
  // ...and so does every client's rendered report, byte for byte.
  EXPECT_EQ(renderClients(*Seq.Session, *Prog.M),
            renderClients(*Par.Session, *Prog.M));
  // Four shards, one violation each, appended in shard order.
  EXPECT_EQ(Seq.Session->typestate()->violations().size(), 4u);
  // Copy counts sum across shards into the single abstract chain.
  ASSERT_EQ(Seq.Session->copy()->chains().size(), 1u);
  EXPECT_EQ(Seq.Session->copy()->chains()[0].Count, 4u);
}

} // namespace
