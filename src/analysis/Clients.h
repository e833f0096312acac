//===- analysis/Clients.h - Section 3.2's auxiliary clients ----*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The additional Gcost clients sketched in Section 3.2:
///   - overwrite ranking: heap locations re-written before being read (the
///     derby FileContainer case study);
///   - method-level costs: stack work to produce each method's return value
///     relative to its heap inputs;
///   - predicate constancy: branch conditions that always evaluate the same
///     way, with the cost of computing their operands (the bloat
///     Assert.isTrue and tomcat getProperty case studies).
///
//===----------------------------------------------------------------------===//

#ifndef LUD_ANALYSIS_CLIENTS_H
#define LUD_ANALYSIS_CLIENTS_H

#include "analysis/CostModel.h"
#include "profiling/SlicingProfiler.h"

#include <string>
#include <vector>

namespace lud {

class Module;
class OutStream;

/// What a caller of the Section 3.2 clients prints: how many rows and how
/// deep a report. The clients' noise floors are constants of their own (see
/// rankOverwrites and findConstantPredicates); the table printers for these
/// rows live with the other report sections in analysis/Report.h.
struct ClientOptions {
  /// Rows per printed table.
  size_t TopK = 15;
  /// Reference-tree height n (Definition 7) for the Gcost report run
  /// alongside the clients.
  unsigned Depth = 4;
};

//===----------------------------------------------------------------------===
// Overwrite ranking.
//===----------------------------------------------------------------------===

/// One abstract location aggregated over contexts, ranked by wasted writes.
struct OverwriteRow {
  AllocSiteId Site = kNoAllocSite; // kNoAllocSite for statics.
  GlobalId Global = kNoGlobal;     // set instead for statics.
  FieldSlot Slot = 0;
  std::string Description; // "new int[] @ derby_meta .ELM"
  uint64_t Writes = 0;
  uint64_t Reads = 0;
  uint64_t Overwrites = 0;
  /// Overwrites / Writes: fraction of stores no load ever observed.
  double WasteRatio = 0;
};

/// Locations sorted by overwrite count (then waste ratio). Rows with fewer
/// than 2 writes are dropped as noise. The ClientOptions a caller passes
/// along set only what it prints.
std::vector<OverwriteRow> rankOverwrites(const SlicingProfiler &P,
                                         const Module &M,
                                         const ClientOptions & = {});

/// Rank (0-based) of the first row matching \p Site, or -1.
int overwriteRankOf(const std::vector<OverwriteRow> &Rows, AllocSiteId Site);

//===----------------------------------------------------------------------===
// Method-level cost.
//===----------------------------------------------------------------------===

struct MethodCostRow {
  FuncId Func = kNoFunc;
  std::string Name;
  /// Total instruction instances executed in the method's own body
  /// (summed over all of its nodes; callees excluded).
  uint64_t OwnFreq = 0;
  /// Mean single-hop HRAC over the method's return nodes: the stack work
  /// to produce the return value from heap inputs (Section 3.2's
  /// "cost of producing the return value of a method relative to its
  /// inputs"). Zero for void methods.
  double ReturnCost = 0;
  uint64_t ReturnNodes = 0;
};

/// Per-method costs, sorted by ReturnCost descending.
std::vector<MethodCostRow> computeMethodCosts(const CostModel &CM,
                                              const Module &M);

//===----------------------------------------------------------------------===
// Predicate constancy.
//===----------------------------------------------------------------------===

struct ConstantPredicateRow {
  InstrId Instr = kNoInstr;
  NodeId Node = kNoNode;
  std::string Text; // "if r3 < r4 ... @ fop_guards"
  uint64_t Executions = 0;
  bool AlwaysTrue = false;
  /// Single-hop cost of computing the condition's operands.
  uint64_t OperandCost = 0;
};

/// Predicates that always took the same direction, executed at least
/// twice; sorted by OperandCost * Executions descending. The ClientOptions
/// a caller passes along set only what it prints.
std::vector<ConstantPredicateRow>
findConstantPredicates(const SlicingProfiler &P, const CostModel &CM,
                       const Module &M, const ClientOptions & = {});

} // namespace lud

#endif // LUD_ANALYSIS_CLIENTS_H
