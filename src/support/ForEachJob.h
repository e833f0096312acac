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

#include <atomic>
#include <thread>
#include <vector>

namespace lud {

/// Runs \p Body(Job) for every Job in [0, Jobs), at most \p Threads at a
/// time. Jobs complete in arbitrary order — callers index results by job
/// id to stay deterministic. Threads <= 1 (or a single job) runs the whole
/// batch inline on the calling thread, in index order, with no other
/// thread: the reference every merged result is tested against.
template <class Fn> void forEachJob(unsigned Jobs, unsigned Threads, Fn Body) {
  if (Threads <= 1 || Jobs <= 1) {
    for (unsigned J = 0; J != Jobs; ++J)
      Body(J);
    return;
  }
  std::atomic<unsigned> Next{0};
  auto Work = [&] {
    for (unsigned J = Next++; J < Jobs; J = Next++)
      Body(J);
  };
  // jthreads join when Helpers goes out of scope, on every path.
  std::vector<std::jthread> Helpers;
  for (unsigned T = 1; T < Threads && T < Jobs; ++T)
    Helpers.emplace_back(Work);
  Work();
}

} // namespace lud

#endif // LUD_SUPPORT_FOREACHJOB_H
