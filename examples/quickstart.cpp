//===- examples/quickstart.cpp - Build, profile, rank ----------------------===//
//
// The 60-second tour: construct a small program with the IRBuilder, run it
// under the cost-benefit profiler, and print the low-utility data structure
// report. The program is the paper's motivating example (Section 1 / the
// DaCapo chart anecdote): a list is filled with expensively computed
// entries, but the program only ever asks for its size.
//
// Build & run:  ./examples/quickstart
//
//===----------------------------------------------------------------------===//

#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "ir/IRBuilder.h"
#include "support/OutStream.h"
#include "workloads/Driver.h"

using namespace lud;

int main() {
  OutStream &OS = outs();

  // 1. Build the program.
  //
  //    main():
  //      list = new Entry[200]
  //      for i in 0..200:
  //        v = expensive(i)            # several instructions
  //        e = new Entry; e.v = v      # boxed...
  //        list[i] = e                 # ...and appended
  //      sink(len(list))               # only the size is ever used!
  Module M;
  ClassDecl *Entry = M.addClass("Entry");
  Entry->addField("v", Type::makeInt());

  IRBuilder B(M);
  B.beginFunction("main", 0);
  Reg N = B.iconst(200);
  Reg List = B.allocArray(TypeKind::Ref, N);
  Reg I = B.iconst(0);
  Reg One = B.iconst(1);
  Reg C17 = B.iconst(17);
  BasicBlock *Header = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(Header);
  B.setBlock(Header);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  Reg V1 = B.mul(I, I);
  Reg V2 = B.add(V1, C17);
  Reg V3 = B.mul(V2, V2);
  Reg E = B.alloc(Entry->getId());
  B.storeField(E, Entry->getId(), "v", V3);
  B.storeElem(List, I, E);
  B.binInto(I, BinOp::Add, I, One);
  B.br(Header);
  B.setBlock(Exit);
  Reg Len = B.arrayLen(List);
  B.ncallVoid("sink", {Len});
  B.ret();
  B.endFunction();
  M.finalize();

  // 2. Execute under the slicing profiler: this builds Gcost online,
  //    following the inference rules of the paper's Figure 4. A
  //    ProfileSession owns the whole lifecycle — prepare, run, report —
  //    the same arc lud-run, lud-replay, and the lud-serve daemon share.
  ProfileSession Session(SessionConfig::profiled());
  RunResult Run = Session.run(M).Run;
  const DepGraph &G = Session.slicing()->graph();
  OS << "executed " << Run.ExecutedInstrs << " instructions; Gcost has "
     << uint64_t(G.numNodes()) << " nodes and "
     << uint64_t(G.numEdges()) << " edges\n\n";

  // 3. Seal the finished graph for the offline analyses, and rank data
  //    structures by relative cost/benefit (Definitions 5-7).
  const FrozenGraph FG(G);
  CostModel CM(FG);
  LowUtilityReport Report(CM, M);
  OS << "=== Low-utility data structures (most suspicious first) ===\n";
  Report.print(OS, 5);

  // 4. The ultimately-dead value measurement (Table 1(c)).
  DeadValueAnalysis DV = computeDeadValues(FG, Run.ExecutedInstrs);
  OS << "\nIPD (instances producing only dead values): ";
  OS.printFixed(100.0 * DV.Metrics.ipd(), 1);
  OS << "%\nNLD (dead graph nodes):                     ";
  OS.printFixed(100.0 * DV.Metrics.nld(), 1);
  OS << "%\n\nThe Entry allocation tops the ranking: its field is written "
        "with\nexpensively computed values that no one ever reads.\n";
  return 0;
}
