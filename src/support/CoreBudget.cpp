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

std::atomic<CoreBudget *> Installed{nullptr};

} // namespace

CoreBudget &CoreBudget::process() {
  if (CoreBudget *O = Installed.load(std::memory_order_acquire))
    return *O;
  static CoreBudget B(processCores());
  return B;
}

CoreBudget::Override::Override(unsigned Cores)
    : Outer(Installed.load(std::memory_order_acquire)),
      Budget(new CoreBudget(Cores)) {
  Installed.store(Budget, std::memory_order_release);
}

CoreBudget::Override::~Override() {
  Installed.store(Outer, std::memory_order_release);
  delete Budget;
}

CoreBudget::OnHeldCore::OnHeldCore() : Outer(ThreadOnHeldCore) {
  ThreadOnHeldCore = true;
}

CoreBudget::OnHeldCore::~OnHeldCore() { ThreadOnHeldCore = Outer; }

bool CoreBudget::OnHeldCore::active() { return ThreadOnHeldCore; }
