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
/// whole batch, before any job starts. A session with clients starts their
/// execution on a second thread only while some core is not held
/// (workloads/Driver.h); once the callers' threads cover every core — the
/// sharded driver or lud-replay at --threads=<cores>, a daemon with every
/// worker busy — it runs them on the calling thread after the substrate,
/// so a saturated process adds no threads and no job in a batch lags the
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
  /// run on (its affinity mask).
  static CoreBudget &process();

  unsigned cores() const { return Cores; }
  /// Cores held by the callers' threads.
  unsigned busy() const { return Busy.load(std::memory_order_relaxed); }
  /// Whether some core is not held, so a second thread gets a core the
  /// callers' threads do not already cover.
  bool spare() const { return busy() < Cores; }

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
