//===- profiling/TagEnv.h - Environment P: heap tags, contexts -*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Environment P of Figure 4 as a profiler of its own: the object-sensitive
/// context stack (ContextEncoder), the phase gate of selective tracking
/// (Section 4.1), and the ALLOC rule that writes each object's tag — its
/// allocation site times the context slots, plus the current slot — into
/// the heap header. The slicing substrate owns one and consults it at every
/// hook. A profiling session's client execution composes one ahead of the
/// clients (ComposedProfiler<TagEnv, CopyProfiler, ...>), so both
/// executions tag every object identically and the clients never read
/// substrate state.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_TAGENV_H
#define LUD_PROFILING_TAGENV_H

#include "ir/Function.h"
#include "profiling/Context.h"
#include "profiling/DepGraph.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"

namespace lud {

struct SlicingConfig {
  /// The paper's s: number of context slots per instruction.
  uint32_t ContextSlots = 16;
  /// Bit i set => instructions executed in phase i are tracked. Phase 0 is
  /// active from entry until the first `phase` marker.
  uint64_t TrackedPhaseMask = ~uint64_t(0);
  /// Thin slicing (Definition 2): base-pointer values are not uses. Setting
  /// this false adds base-pointer edges, approximating traditional dynamic
  /// slicing for the ablation benchmark.
  bool ThinSlicing = true;
  /// Object-sensitive contexts; false collapses the domain to one slot
  /// (context-insensitive ablation).
  bool ContextSensitive = true;
  /// Hot-path memo caches: DepGraph's per-instruction memo (in the
  /// substrate's graph and in every client graph), the last-ref-edge memo,
  /// the same-location skip (a store or load repeating its node's effect
  /// location reaches the record through the node's LocId instead of
  /// re-interning the location), and table pre-sizing from the module.
  /// Results are bit-identical either way; turning this off selects the
  /// cache-free reference path the equivalence tests compare against.
  bool HotPathCaches = true;
};

/// Allocation site of heap tag \p Tag under a codec of \p ContextSlots
/// slots; kNoAllocSite for an untagged object.
inline AllocSiteId tagAllocSite(uint64_t Tag, uint32_t ContextSlots) {
  if (Tag == kNoTag || DepGraph::isStaticTag(Tag))
    return kNoAllocSite;
  return DepGraph::tagSite(Tag, ContextSlots);
}

class TagEnv : public NoopProfiler {
public:
  explicit TagEnv(const SlicingConfig &Cfg)
      : Ctx(Cfg.ContextSlots), PhaseMask(Cfg.TrackedPhaseMask),
        ContextSensitive(Cfg.ContextSensitive) {
    Ctx.reset();
  }

  /// Whether the current phase is tracked.
  bool enabled() const { return Enabled; }
  /// The current frame's context slot, the domain element of every
  /// context-sensitive node (always 0 without object sensitivity).
  uint32_t domain() const { return ContextSensitive ? Ctx.slot() : 0; }
  const ContextEncoder &contexts() const { return Ctx; }

  /// The ALLOC rule: tags \p O with (\p Site, current slot) and returns the
  /// tag. Under a tracking-off phase the object stays untagged (kNoTag).
  uint64_t tagAlloc(AllocSiteId Site, ObjId O) {
    if (!Enabled)
      return kNoTag;
    uint64_t Tag = DepGraph::makeTag(Site, domain(), Ctx.numSlots());
    H->obj(O).Tag = Tag;
    return Tag;
  }

  void onRunStart(const Module &, Heap &Heap_) {
    H = &Heap_;
    Enabled = (PhaseMask & 1) != 0;
  }
  void onEntryFrame(const Function &) { Ctx.reset(); }
  void onPhase(int64_t Phase) {
    Enabled = Phase < 0 || Phase >= 64 || ((PhaseMask >> Phase) & 1) != 0;
  }
  void onAlloc(const AllocInst &I, ObjId O) { tagAlloc(I.Site, O); }
  void onAllocArray(const AllocArrayInst &I, ObjId O) { tagAlloc(I.Site, O); }
  /// Instance methods extend the context chain with the receiver's
  /// allocation site (ALLOCID strips the context annotation); an untagged
  /// receiver extends it with site 0.
  void onCallEnter(const CallInst &, const Function &Callee, ObjId Receiver) {
    bool Extends = Callee.isMethod() && Receiver != kNullObj;
    AllocSiteId Site = 0;
    if (Extends) {
      uint64_t Tag = H->obj(Receiver).Tag;
      Site = Tag == kNoTag ? 0 : DepGraph::tagSite(Tag, Ctx.numSlots());
    }
    Ctx.pushCall(Extends, Site);
  }
  /// The entry frame's context stays.
  void onReturn(const ReturnInst &) {
    if (Ctx.depth() > 1)
      Ctx.popCall();
  }

private:
  ContextEncoder Ctx;
  uint64_t PhaseMask;
  bool ContextSensitive;
  bool Enabled = true;
  Heap *H = nullptr;
};

} // namespace lud

#endif // LUD_PROFILING_TAGENV_H
