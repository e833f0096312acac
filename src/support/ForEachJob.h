//===- support/ForEachJob.h - Bounded parallel job loop --------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one threading helper: run a batch of indexed jobs on at most N
/// plain std::threads, the calling thread among them, each claiming the
/// next unstarted job until none are left. The sharded drivers and the
/// batch benches use it; the profiling service needs no pool, since each
/// connection thread re-executes its own frames.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_SUPPORT_FOREACHJOB_H
#define LUD_SUPPORT_FOREACHJOB_H

#include "support/CoreBudget.h"

#include <atomic>
#include <thread>
#include <vector>

namespace lud {

/// Runs \p Body(Job) for every Job in [0, Jobs), at most \p Threads at a
/// time. Jobs complete in arbitrary order — callers index results by job
/// id to stay deterministic. Threads <= 1 (or a single job) runs the whole
/// batch inline on the calling thread, in index order, with no other
/// thread: the reference every merged result is tested against.
///
/// A parallel batch holds one core per worker thread in
/// CoreBudget::process() before any job starts, so every job sees how
/// much of the machine the batch covers, and a job's profiling session
/// adds a thread for its clients only while a core is left over.
template <class Fn> void forEachJob(unsigned Jobs, unsigned Threads, Fn Body) {
  if (Threads <= 1 || Jobs <= 1) {
    for (unsigned J = 0; J != Jobs; ++J)
      Body(J);
    return;
  }
  unsigned Workers = Threads < Jobs ? Threads : Jobs;
  CoreBudget::Hold Cores = CoreBudget::process().hold(Workers);
  std::atomic<unsigned> Next{0};
  auto Work = [&] {
    CoreBudget::OnHeldCore Held;
    for (unsigned J = Next++; J < Jobs; J = Next++)
      Body(J);
  };
  // jthreads join when Helpers goes out of scope, on every path.
  std::vector<std::jthread> Helpers;
  for (unsigned T = 1; T < Workers; ++T)
    Helpers.emplace_back(Work);
  Work();
}

} // namespace lud

#endif // LUD_SUPPORT_FOREACHJOB_H
