//===- analysis/DeadValues.h - Ultimately-dead value metrics ---*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The bloat measurement of Table 1(c): D is the set of non-consumer sink
/// nodes, D* the nodes that can lead only to D (equivalently: that reach no
/// consumer), P* the nodes whose values end up only in predicates. IPD/IPP
/// weight D*/P* by execution frequency against the total instruction
/// instances I; NLD is |D*| over the node count.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_DEADVALUES_H
#define LUD_ANALYSIS_DEADVALUES_H

#include "profiling/FrozenGraph.h"

#include <vector>

namespace lud {

struct BloatMetrics {
  /// Total executed instruction instances (the paper's I column).
  uint64_t TotalInstrInstances = 0;
  /// Sum of frequencies over D* (instances producing only dead values).
  uint64_t DeadFreq = 0;
  /// Sum of frequencies over P* (instances producing predicate-only data).
  uint64_t PredOnlyFreq = 0;
  size_t DeadNodes = 0;
  size_t TotalNodes = 0;

  /// Table 1(c) IPD: fraction of instruction instances (transitively)
  /// producing ultimately-dead values.
  double ipd() const {
    return TotalInstrInstances ? double(DeadFreq) / double(TotalInstrInstances)
                               : 0;
  }
  /// Table 1(c) IPP: fraction producing values that end up only in
  /// predicates.
  double ipp() const {
    return TotalInstrInstances
               ? double(PredOnlyFreq) / double(TotalInstrInstances)
               : 0;
  }
  /// Table 1(c) NLD: fraction of graph nodes that are ultimately dead.
  double nld() const {
    return TotalNodes ? double(DeadNodes) / double(TotalNodes) : 0;
  }
};

/// Per-node dead/predicate-only classification plus the aggregate metrics.
struct DeadValueAnalysis {
  BloatMetrics Metrics;
  /// Node is in D*: no forward path reaches any consumer.
  std::vector<bool> Dead;
  /// Node is in P*: reaches a predicate, never a native, never a dead sink.
  std::vector<bool> PredicateOnly;
};

/// Runs the analysis over a sealed graph. \p ExecutedInstrs is the run's
/// instruction count (RunResult::ExecutedInstrs). The sweep touches only
/// the meta and frequency columns plus CSR In edges. Dead/PredicateOnly
/// are indexed by NodeId, which sealing preserves.
DeadValueAnalysis computeDeadValues(const FrozenGraph &G,
                                    uint64_t ExecutedInstrs);

} // namespace lud

#endif // LUD_ANALYSIS_DEADVALUES_H
