//===- examples/copy_profiling.cpp - Figure 2(c) client --------------------===//
//
// Demonstrates extended copy profiling (Section 2.1, Figure 2(c)): data
// moving from one heap location to another without any computation. The
// domain O x P (allocation site x field) annotates every copy instruction
// with the field its value originated from, so — unlike a flat copy graph —
// the intermediate stack hops (the methods the data tunneled through) are
// recoverable.
//
// The program is a miniature of the tradesoap finding: a bean's fields are
// copied into a transfer object and back out, field by field, per request.
//
//===----------------------------------------------------------------------===//

#include "ir/IRBuilder.h"
#include "ir/Printer.h"
#include "profiling/CopyProfiler.h"
#include "support/OutStream.h"
#include "workloads/Driver.h"

using namespace lud;

int main() {
  OutStream &OS = outs();

  Module M;
  ClassDecl *Account = M.addClass("Account");
  Account->addField("balance", Type::makeInt());
  Account->addField("owner", Type::makeInt());
  ClassDecl *Soap = M.addClass("SoapBean");
  Soap->addField("balance", Type::makeInt());
  Soap->addField("owner", Type::makeInt());

  IRBuilder B(M);
  // convert(account) -> SoapBean: the pure copy layer.
  B.beginFunction("convert", 1);
  Reg Out = B.alloc(Soap->getId());
  Reg Bal = B.loadField(0, Account->getId(), "balance");
  B.storeField(Out, Soap->getId(), "balance", Bal);
  Reg Own = B.loadField(0, Account->getId(), "owner");
  B.storeField(Out, Soap->getId(), "owner", Own);
  B.ret(Out);
  B.endFunction();

  B.beginFunction("main", 0);
  Reg I = B.iconst(0);
  Reg N = B.iconst(50);
  Reg One = B.iconst(1);
  Reg Acc = B.iconst(0);
  BasicBlock *H = B.newBlock();
  BasicBlock *Body = B.newBlock();
  BasicBlock *Exit = B.newBlock();
  B.br(H);
  B.setBlock(H);
  B.condBr(CmpOp::Lt, I, N, Body, Exit);
  B.setBlock(Body);
  Reg A = B.alloc(Account->getId());
  Reg V = B.mul(I, I);
  B.storeField(A, Account->getId(), "balance", V);
  B.storeField(A, Account->getId(), "owner", I);
  Reg Bean = B.call("convert", {A});
  Reg Back = B.loadField(Bean, Soap->getId(), "balance");
  B.binInto(Acc, BinOp::Add, Acc, Back);
  B.binInto(I, BinOp::Add, I, One);
  B.br(H);
  B.setBlock(Exit);
  B.ncallVoid("sink", {Acc});
  B.ret();
  B.endFunction();
  M.finalize();

  // The copy client rides the slicing substrate (which provides the heap
  // tags); ProfileSession composes both into one interpretation pass.
  SessionConfig SCfg;
  SCfg.Clients = ClientSet::copy();
  ProfileSession Session(std::move(SCfg));
  RunResult R = Session.run(M).Run;
  CopyProfiler &P = *Session.copy();
  OS << "run finished; " << P.copyInstances()
     << " copy-instruction instances out of " << R.ExecutedInstrs
     << " executed ("
     << uint64_t(100 * P.copyInstances() / R.ExecutedInstrs) << "%)\n\n";

  auto locName = [&](const HeapLoc &L) {
    if (DepGraph::isStaticTag(L.Tag))
      return std::string("static");
    std::string Field =
        L.Slot == kElemSlot
            ? std::string("ELM")
            : M.fieldName(cast<AllocInst>(M.getAllocSite(AllocSiteId(L.Tag)))
                              ->Class,
                          L.Slot);
    return M.describeAllocSite(AllocSiteId(L.Tag)) + "." + Field;
  };

  OS << "=== heap-to-heap copy chains ===\n";
  const FrozenGraph Sealed(P.graph());
  for (const CopyProfiler::CopyChain &Chain : P.chains()) {
    OS << "  " << locName(Chain.From) << "  ->  " << locName(Chain.To)
       << "   x" << Chain.Count << "\n";
    OS << "    via stack hops:\n";
    for (InstrId Hop : CopyProfiler::stackHops(Sealed, Chain))
      OS << "      " << M.getInstrFunction(Hop)->getName() << ": "
         << instToString(M, *M.getInstr(Hop)) << "\n";
  }
  OS << "\nEvery chain above moves data with zero computation: the paper's\n"
        "tradesoap finding (convertXBean copies between representations).\n";
  return 0;
}
