//===- support/CoreBudget.h - Cores the callers hold -----------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// How many of the process's cores its callers' own threads cover. Each
/// profiling execution on a caller's thread holds one core, and a batch
/// of jobs (support/ForEachJob.h) holds one per worker thread for the
/// whole batch, before any job starts. A session with clients places their
/// executions by what is left (clientThreads(), workloads/Driver.h): two
/// threads while the free cores cover two for every held one (a lone
/// caller on three or more cores), one while any core is free, and once
/// the callers' threads cover every core — the sharded driver or
/// lud-replay at --threads=<cores>, a daemon with every worker busy — none:
/// the clients then run on the calling thread after the substrate, so a
/// saturated process adds no threads and no job in a batch lags the
/// others. The choice follows the load the process observes, not an
/// option. Client threads hold nothing: below saturation the operating
/// system shares the cores among them fairly.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SUPPORT_COREBUDGET_H
#define LUD_SUPPORT_COREBUDGET_H

#include <atomic>

namespace lud {

class CoreBudget {
public:
  CoreBudget(const CoreBudget &) = delete;
  CoreBudget &operator=(const CoreBudget &) = delete;

  /// The budget every profiling session shares: the CPUs this process may
  /// run on (its affinity mask), or the one an Override installed.
  static CoreBudget &process();

  /// Makes process() a budget of \p Cores cores for the guard's lifetime,
  /// whatever the machine has, so tests reach every placement on any
  /// runner. Install it while no session runs and no core is held.
  class Override {
  public:
    explicit Override(unsigned Cores);
    ~Override();
    Override(const Override &) = delete;
    Override &operator=(const Override &) = delete;

  private:
    CoreBudget *Outer;
    CoreBudget *Budget;
  };

  unsigned cores() const { return Cores; }
  /// Cores held by the callers' threads.
  unsigned busy() const { return Busy.load(std::memory_order_relaxed); }
  /// Threads a session's client executions may take beside its caller's
  /// thread: two while the spare cores cover two for every held core (so
  /// every caller could split its clients at once without oversubscribing
  /// the cores), one while any core is spare, else none.
  unsigned clientThreads() const {
    unsigned B = busy();
    unsigned Free = B < Cores ? Cores - B : 0;
    if (Free >= 2 && Free >= 2 * B)
      return 2;
    return Free ? 1 : 0;
  }

  /// Holds cores for the guard's lifetime.
  class Hold {
  public:
    Hold() = default;
    Hold(Hold &&O) noexcept : B(O.B), N(O.N) { O.B = nullptr; }
    Hold &operator=(Hold &&) = delete;
    ~Hold() {
      if (B)
        B->Busy.fetch_sub(N, std::memory_order_relaxed);
    }

  private:
    friend class CoreBudget;
    Hold(CoreBudget *B, unsigned N) : B(B), N(N) {}
    CoreBudget *B = nullptr;
    unsigned N = 0;
  };

  /// Holds \p N cores, whether or not they are free: the threads that hold
  /// them run anyway.
  Hold hold(unsigned N) {
    Busy.fetch_add(N, std::memory_order_relaxed);
    return Hold(this, N);
  }
  /// Holds one core for an execution on the calling thread, unless the
  /// thread is a batch worker whose core its batch already holds.
  Hold holdCallingThread() {
    return OnHeldCore::active() ? Hold() : hold(1);
  }

  /// Marks the calling thread, for the guard's lifetime, as running on a
  /// core its batch holds.
  class OnHeldCore {
  public:
    OnHeldCore();
    ~OnHeldCore();
    OnHeldCore(const OnHeldCore &) = delete;
    OnHeldCore &operator=(const OnHeldCore &) = delete;
    static bool active();

  private:
    bool Outer;
  };

private:
  explicit CoreBudget(unsigned Cores) : Cores(Cores ? Cores : 1) {}

  const unsigned Cores;
  std::atomic<unsigned> Busy{0};
};

} // namespace lud

#endif // LUD_SUPPORT_COREBUDGET_H
