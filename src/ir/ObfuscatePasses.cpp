//===- ir/ObfuscatePasses.cpp - The three obfuscation emitters -------------===//
//
// Each emitter builds an instruction sequence, with registers from the
// rewriter, that the driver (Obfuscate.cpp) hands to ModuleRewriter as one
// edit. Each plants one of the adversarial shapes of Section 3.2, built so
// the closed loop holds by construction:
//
//  - junk payloads write int chains into one module-wide accumulator
//    object nothing ever reads: the whole program's junk cost lands on a
//    single allocation site whose pure n-RAC / zero n-RAB "dead" ratio is
//    guaranteed to outrank every genuine structure, and the profiled-dead-
//    store sweep plus pure-producer DCE (analysis/Optimizer.cpp) strips
//    every payload, leaving only the two-instruction accumulator spine
//    (its ref store is structure spine, which the sweep rightly keeps);
//  - opaque guards compare a never-varying global against its only stored
//    value: control flow is unchanged at run time, the diversion arm never
//    executes, and the constant-predicate client must prove the invariance;
//  - string tables fill an int array with XOR-encoded function-name bytes
//    and re-decode elements in place at use sites (rewrite-per-read); the
//    whole closed subgraph reaches no consumer, so dead-value analysis
//    classifies every node D* and the sweep removes table, fill, and
//    decode together.
//
// Trap freedom: no Div/Rem, constant indices below constant lengths, all
// bases are fresh local allocations, and no transform adds a back edge.
// Chain constants stay below 2^16 so Add/Sub chains cannot overflow.
//
//===----------------------------------------------------------------------===//

#include "ir/ObfuscateImpl.h"

using namespace lud;
using namespace lud::detail;

namespace {
/// Register-frame headroom guard: Reg is 16 bits; stop injecting into a
/// function whose frame approaches the sentinel instead of wrapping.
constexpr unsigned kRegHeadroom = 0xFF00;
} // namespace

Reg Obfuscator::emitJunkChain(Seq &B, RNG &R) {
  Reg P = fresh();
  B.push_back(ConstInst::makeInt(P, int64_t(R.nextBelow(1u << 16))));
  ++Injected;
  // Overflow-free opcode mix only (no Mul: chained products of 16-bit
  // values would leave int64 range).
  static const BinOp Ops[] = {BinOp::Add, BinOp::Sub, BinOp::Xor, BinOp::And,
                              BinOp::Or};
  unsigned Len = 2 + unsigned(R.nextBelow(3));
  for (unsigned I = 0; I != Len; ++I) {
    Reg C = fresh();
    Reg Q = fresh();
    B.push_back(ConstInst::makeInt(C, int64_t(R.nextBelow(1u << 16))));
    B.push_back(new BinInst(Ops[R.nextBelow(5)], Q, P, C));
    Injected += 2;
    P = Q;
  }
  return P;
}

void Obfuscator::emitJunkAccumulator(Seq &B) {
  Reg D = fresh();
  B.push_back(new AllocInst(D, JunkClass));
  Pending.push_back({ObfKind::Junk, B.back(), Cur});
  B.push_back(new StoreStaticInst(JunkSink, D));
  Injected += 2;
}

void Obfuscator::emitJunk(Seq &B, RNG &R) {
  if (numRegs() + 16 >= kRegHeadroom)
    return;
  // Every injection writes its own fresh field of the module's single
  // accumulator object (see emitJunkAccumulator): the whole program's
  // junk cost lands on ONE allocation site, summed field by field, so the
  // site's n-RAC is a large share of total execution cost and outranks
  // every genuine structure. Per-block fresh allocations would instead
  // let a cold-path junk site rank below a hot genuine dead structure,
  // and a shared field would average the hot writers away against the
  // cold ones (RAC is the mean over a location's writers).
  Reg S = fresh();
  B.push_back(new LoadStaticInst(S, JunkSink));
  ++Injected;
  Reg P = emitJunkChain(B, R);
  FieldSlot Slot = Rw.addField(
      JunkClass, "j" + std::to_string(NumJunkFields++), Type::makeInt());
  B.push_back(new StoreFieldInst(S, JunkClass, Slot, P));
  ++Injected;
}

void Obfuscator::emitDiversionPayload(Seq &B) {
  Reg A = fresh();
  Reg C = fresh();
  Reg D = fresh();
  B.push_back(ConstInst::makeInt(A, 0x5eed));
  B.push_back(ConstInst::makeInt(C, 0x0bf));
  B.push_back(new BinInst(BinOp::Xor, D, A, C));
  Injected += 3;
}

Instruction *Obfuscator::emitOpaqueGuard(Seq &B, RNG &R, uint32_t Target) {
  Reg V = fresh();
  Reg C = fresh();
  B.push_back(new LoadStaticInst(V, OpaqueGlobal));
  B.push_back(ConstInst::makeInt(C, OpaqueKey));
  Injected += 2;
  bool AlwaysTrue = R.nextBelow(2) == 0;
  Seq Diversion;
  emitDiversionPayload(Diversion);
  Diversion.push_back(new BrInst(Target));
  ++Injected;
  uint32_t J = Rw.appendBlock(Cur, std::move(Diversion));
  // Always true: fall through to the real target on the taken arm.
  // Always false: the real target sits on the not-taken arm.
  Instruction *CB = AlwaysTrue
                        ? new CondBrInst(CmpOp::Eq, V, C, Target, J)
                        : new CondBrInst(CmpOp::Ne, V, C, J, Target);
  B.push_back(CB);
  ++Injected;
  return CB;
}

void Obfuscator::emitStringTableBuild(Seq &B, Reg TabReg,
                                      const std::string &FuncName) {
  constexpr unsigned kTableLen = 8;
  Reg L = fresh();
  B.push_back(ConstInst::makeInt(L, kTableLen));
  B.push_back(new AllocArrayInst(TabReg, TypeKind::Int, L));
  Pending.push_back({ObfKind::StringTable, B.back(), Cur});
  Injected += 2;
  for (unsigned I = 0; I != kTableLen; ++I) {
    int64_t Byte =
        I < FuncName.size() ? int64_t(uint8_t(FuncName[I])) : int64_t(I);
    Reg Idx = fresh();
    Reg V = fresh();
    B.push_back(ConstInst::makeInt(Idx, I));
    B.push_back(ConstInst::makeInt(V, Byte ^ StringKey));
    B.push_back(new StoreElemInst(TabReg, Idx, V));
    Injected += 3;
  }
}

void Obfuscator::emitStringDecode(Seq &B, RNG &R, Reg TabReg) {
  if (numRegs() + 8 >= kRegHeadroom)
    return;
  // Decode one element in place each time the block runs — the paper's
  // rewrite-per-read pattern (XOR is involutive, so repeated visits just
  // toggle the encoding; nothing ever consumes the value).
  Reg Idx = fresh();
  Reg E = fresh();
  Reg K = fresh();
  Reg D = fresh();
  B.push_back(ConstInst::makeInt(Idx, int64_t(R.nextBelow(8))));
  B.push_back(new LoadElemInst(E, TabReg, Idx));
  B.push_back(ConstInst::makeInt(K, StringKey));
  B.push_back(new BinInst(BinOp::Xor, D, E, K));
  B.push_back(new StoreElemInst(TabReg, Idx, D));
  Injected += 5;
}
