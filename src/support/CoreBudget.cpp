//===- support/CoreBudget.cpp - Cores the callers hold -------------------===//

#include "support/CoreBudget.h"

#include <thread>

#ifdef __linux__
#include <sched.h>
#endif

using namespace lud;

namespace {

unsigned processCores() {
#ifdef __linux__
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return unsigned(CPU_COUNT(&Set));
#endif
  return std::thread::hardware_concurrency();
}

thread_local bool ThreadOnHeldCore = false;

} // namespace

CoreBudget &CoreBudget::process() {
  static CoreBudget B(processCores());
  return B;
}

CoreBudget::OnHeldCore::OnHeldCore() : Outer(ThreadOnHeldCore) {
  ThreadOnHeldCore = true;
}

CoreBudget::OnHeldCore::~OnHeldCore() { ThreadOnHeldCore = Outer; }

bool CoreBudget::OnHeldCore::active() { return ThreadOnHeldCore; }
