//===- analysis/MultiHop.h - Multi-hop relative costs ----------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The multi-hop extension the paper sketches in Section 3.2 ("a different
/// way of handling this issue is to consider multiple hops when computing
/// costs and benefits"): k-hop relative cost/benefit generalize HRAC/HRAB
/// by letting the traversal cross up to k-1 heap boundaries. k = 1
/// degenerates to Definitions 5/6; larger k widens the inspected region of
/// the data flow, trading report explainability for reach — the trade-off
/// the paper proposes to study.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_MULTIHOP_H
#define LUD_ANALYSIS_MULTIHOP_H

#include "analysis/CostModel.h"

namespace lud {

/// k-hop heap-relative abstract cost: like Definition 5, but a path may
/// pass through up to \p Hops - 1 heap-reading nodes (each read continues
/// into the hop that produced that heap value). Hops >= 1.
uint64_t multiHopCost(const FrozenGraph &G, NodeId N, unsigned Hops);

/// k-hop dual of Definition 6: forward traversal crossing up to
/// \p Hops - 1 heap-writing nodes (each write continues into the hop that
/// consumes the written location).
BenefitInfo multiHopBenefit(const FrozenGraph &G, NodeId N, unsigned Hops);

/// RAC/RAB of the abstract heap location at universe index \p I under
/// k-hop traversal (means over its writer/reader nodes, as in
/// CostModel::locCostBenefitAt).
LocCostBenefit multiHopLocCostBenefit(const FrozenGraph &G, uint32_t I,
                                      unsigned Hops);

} // namespace lud

#endif // LUD_ANALYSIS_MULTIHOP_H
