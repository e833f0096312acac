//===- runtime/Runtime.cpp - Misc runtime helpers --------------------------===//

#include "runtime/Engine.h"
#include "runtime/Interpreter.h"
#include "runtime/ProfilerConcept.h"

#include "support/ErrorHandling.h"

#include <cstdio>
#include <cstdlib>

using namespace lud;

const char *lud::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Interp:
    return "interp";
  case EngineKind::Threaded:
    return "threaded";
  }
  lud_unreachable("unknown EngineKind");
}

const char *lud::validEngineNames() { return "interp, threaded"; }

bool lud::parseEngineKind(const std::string &Name, EngineKind &Out) {
  if (Name == "interp") {
    Out = EngineKind::Interp;
    return true;
  }
  if (Name == "threaded") {
    Out = EngineKind::Threaded;
    return true;
  }
  return false;
}

EngineKind lud::defaultEngineKind() {
  static const EngineKind Cached = [] {
    EngineKind K = EngineKind::Interp;
    // A typo here must not silently re-select the default engine (it made
    // a mis-spelled CI leg re-test the interpreter); warn once, naming the
    // bad value and the accepted spellings. An empty value means unset.
    if (const char *Env = std::getenv("LUD_ENGINE"))
      if (*Env && !parseEngineKind(Env, K))
        std::fprintf(stderr,
                     "warning: LUD_ENGINE='%s' is not a known engine "
                     "(valid: %s); using %s\n",
                     Env, validEngineNames(), engineKindName(K));
    return K;
  }();
  return Cached;
}

const char *lud::trapKindName(TrapKind K) {
  switch (K) {
  case TrapKind::None:
    return "none";
  case TrapKind::NullDeref:
    return "null dereference";
  case TrapKind::OutOfBounds:
    return "array index out of bounds";
  case TrapKind::DivByZero:
    return "division by zero";
  case TrapKind::BadVirtualCall:
    return "no matching virtual method";
  case TrapKind::StackOverflow:
    return "call stack overflow";
  case TrapKind::UnknownNative:
    return "unbound native method";
  }
  lud_unreachable("unknown TrapKind");
}

const char *lud::runStatusName(RunStatus S) {
  switch (S) {
  case RunStatus::Finished:
    return "finished";
  case RunStatus::Trapped:
    return "trapped";
  case RunStatus::BudgetExceeded:
    return "budget-exceeded";
  }
  lud_unreachable("unknown RunStatus");
}
