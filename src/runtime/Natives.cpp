//===- runtime/Natives.cpp - Native function registry ---------------------===//

#include "runtime/Natives.h"

#include "support/OutStream.h"

using namespace lud;

namespace {

uint64_t mixInto(uint64_t Hash, uint64_t Bits) {
  Hash ^= Bits + 0x9E3779B97F4A7C15ULL + (Hash << 6) + (Hash >> 2);
  return Hash;
}

} // namespace

uint64_t lud::valueBits(const Value &V) {
  switch (V.Kind) {
  case ValueKind::Int:
    return uint64_t(V.I);
  case ValueKind::Float: {
    uint64_t B;
    static_assert(sizeof(B) == sizeof(V.F));
    __builtin_memcpy(&B, &V.F, sizeof(B));
    return B;
  }
  case ValueKind::Ref:
    return uint64_t(V.R) | (uint64_t(1) << 63);
  }
  return 0;
}

namespace {

Value nativePrint(NativeContext &Ctx, const Value *Args, size_t N) {
  for (size_t I = 0; I != N; ++I) {
    if (Ctx.Print) {
      switch (Args[I].Kind) {
      case ValueKind::Int:
        *Ctx.Print << Args[I].I;
        break;
      case ValueKind::Float:
        *Ctx.Print << Args[I].F;
        break;
      case ValueKind::Ref:
        *Ctx.Print << "obj#" << uint64_t(Args[I].R);
        break;
      }
      *Ctx.Print << '\n';
    }
    Ctx.SinkHash = mixInto(Ctx.SinkHash, valueBits(Args[I]));
  }
  return Value();
}

Value nativeSink(NativeContext &Ctx, const Value *Args, size_t N) {
  for (size_t I = 0; I != N; ++I)
    Ctx.SinkHash = mixInto(Ctx.SinkHash, valueBits(Args[I]));
  return Value();
}

Value nativeInput(NativeContext &Ctx, const Value *, size_t) {
  if (!Ctx.Input || Ctx.Input->empty())
    return Value::makeInt(0);
  int64_t V = (*Ctx.Input)[Ctx.InputCursor % Ctx.Input->size()];
  ++Ctx.InputCursor;
  return Value::makeInt(V);
}

Value nativeTimestamp(NativeContext &Ctx, const Value *, size_t) {
  return Value::makeInt(Ctx.Clock++);
}

} // namespace

const NativeRegistry &NativeRegistry::standard() {
  static const NativeRegistry *Reg = [] {
    auto *R = new NativeRegistry();
    R->add({"print", nativePrint, /*IsConsumer=*/true, /*HasResult=*/false});
    R->add({"sink", nativeSink, /*IsConsumer=*/true, /*HasResult=*/false});
    R->add({"input", nativeInput, /*IsConsumer=*/false, /*HasResult=*/true});
    R->add({"timestamp", nativeTimestamp, /*IsConsumer=*/false,
            /*HasResult=*/true});
    return R;
  }();
  return *Reg;
}
