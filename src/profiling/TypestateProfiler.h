//===- profiling/TypestateProfiler.h - Typestate history client *- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The typestate-history client of Section 2.1 / Figure 2(b), modeled on
/// QVM's summarized histories: abstract slicing over the domain
/// O x S (allocation sites of tracked objects x typestates). Each virtual
/// call that can change a tracked object's state becomes a node annotated
/// with (allocation site, state before the call); "next event" edges link
/// consecutive events on the same object. Protocol violations are recorded
/// with the abstract node, so the merged history (a DFA-like graph) can be
/// inspected afterwards.
///
/// The receiver's allocation site comes from the heap tag the ALLOC rule
/// wrote (environment P), and trackedness from the heap object's class — no
/// duplicate per-object site table. Compose it after a stage that writes
/// the tags — the TagEnv of a session's client execution, or the
/// SlicingProfiler substrate (runtime/ComposedProfiler.h); untagged objects
/// (allocated while tracking was gated off) produce no events.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_PROFILING_TYPESTATEPROFILER_H
#define LUD_PROFILING_TYPESTATEPROFILER_H

#include "profiling/DepGraph.h"
#include "profiling/TagEnv.h"
#include "runtime/Heap.h"
#include "runtime/ProfilerConcept.h"
#include "support/FlatSet.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace lud {

class Module;
namespace obs {
class MetricsRegistry;
}

/// A typestate protocol: states are small integers, transitions are keyed
/// by (state, method name). Missing transitions are protocol violations.
struct TypestateSpec {
  /// Classes whose instances are tracked.
  std::vector<ClassId> TrackedClasses;
  uint32_t NumStates = 0;
  uint32_t InitialState = 0;
  /// (state, interned method name) -> next state.
  std::unordered_map<uint64_t, uint32_t> Transitions;

  static uint64_t key(uint32_t State, MethodNameId Method) {
    return (uint64_t(State) << 32) | Method;
  }
  void addTransition(uint32_t From, MethodNameId Method, uint32_t To) {
    Transitions[key(From, Method)] = To;
  }
  bool tracks(ClassId C) const {
    for (ClassId T : TrackedClasses)
      if (T == C)
        return true;
    return false;
  }
};

/// Derives a generic resource-lifecycle protocol from the module, for use
/// when no hand-written spec is supplied (the CLI's typestate client):
/// every class with a closer method (close/dispose/free/release) is
/// tracked through fresh(0) -> in-use(1) -> closed(2), where any method
/// moves fresh/in-use to in-use, a closer moves them to closed, and no
/// transition leaves closed — so every call on a closed object (QVM's
/// use-after-close) is a violation. Returns an empty spec (NumStates 0)
/// when no class has a closer method.
TypestateSpec lifecycleSpec(const Module &M);

/// One protocol violation: the event that had no legal transition.
struct TypestateViolation {
  InstrId Instr = kNoInstr;
  AllocSiteId Site = kNoAllocSite;
  uint32_t StateBefore = 0;
  MethodNameId Method = kNoMethodName;
};

/// Cache-line aligned: a session drives the clients on a thread of their
/// own, and no line may also hold the substrate's data (false sharing).
class alignas(64) TypestateProfiler : public NoopProfiler {
public:
  /// \p Cfg is the configuration of the stage that tags the heap: its
  /// ContextSlots decode a receiver's allocation site, and the client graph
  /// follows its HotPathCaches.
  TypestateProfiler(TypestateSpec Spec, const SlicingConfig &Cfg);

  DepGraph &graph() { return G; }
  const DepGraph &graph() const { return G; }
  const TypestateSpec &spec() const { return Spec; }
  const std::vector<TypestateViolation> &violations() const {
    return Violations;
  }

  /// Next-event edges (the dashed arrows of Figure 2(b)): consecutive
  /// events observed on the same object, labeled with the method invoked
  /// at the target event.
  struct EventEdge {
    NodeId From;
    NodeId To;
    MethodNameId Method;
    bool operator==(const EventEdge &O) const {
      return From == O.From && To == O.To && Method == O.Method;
    }
  };
  const std::vector<EventEdge> &eventEdges() const { return Events; }

  /// Domain element for (site, state).
  uint32_t domainOf(AllocSiteId Site, uint32_t State) const {
    return Site * Spec.NumStates + State;
  }

  /// Merges another profiler's results into this one, treating \p O as the
  /// later of two sequential runs: graphs fold via DepGraph::mergeFrom,
  /// \p O's violations append in order, and its next-event edges are
  /// inserted (renumbered, deduplicated) after the existing ones. Both
  /// profilers must use the same spec.
  void mergeFrom(const TypestateProfiler &O);

  /// Writes this client's state-derived telemetry (`typestate.*` gauges)
  /// into \p R. Idempotent set()s; see SlicingProfiler::accountStats.
  void accountStats(obs::MetricsRegistry &R) const;

  // Hook overrides (the rest stay no-ops).
  void onRunStart(const Module &Mod, Heap &H);
  void onAlloc(const AllocInst &I, ObjId O);
  void onCallEnter(const CallInst &I, const Function &Callee, ObjId Receiver);

  /// Renders the merged history as "site:state -method-> site:state" lines.
  std::string describeHistory(const Module &M) const;

private:
  TypestateSpec Spec;
  uint32_t ContextSlots;
  DepGraph G;
  Heap *H = nullptr;
  std::vector<uint32_t> StateOf;        // per ObjId
  std::vector<NodeId> LastEvent;        // per ObjId
  std::vector<TypestateViolation> Violations;
  std::vector<EventEdge> Events;
  /// Methods with a transition out of some state: the events that can
  /// change a tracked object's state. Computed once from the spec.
  FlatSet<MethodNameId> Alphabet;

  struct EventEdgeHash {
    size_t operator()(const EventEdge &E) const {
      return FlatIntHash{}(((uint64_t(E.From) << 32) | E.To) ^
                           (uint64_t(E.Method) * 0x9E3779B97F4A7C15ULL));
    }
  };
  struct EventEdgeEmpty {
    static EventEdge value() { return {kNoNode, kNoNode, kNoMethodName}; }
  };
  /// The members of Events, for deduplication.
  FlatSet<EventEdge, EventEdgeHash, EventEdgeEmpty> EventSet;

  /// Appends \p E to Events unless it is already there.
  void addEvent(const EventEdge &E) {
    if (EventSet.insert(E))
      Events.push_back(E);
  }

  void ensure(ObjId O);
  /// Receiver's allocation site from its heap tag (kNoAllocSite when
  /// untagged — allocated before tracking).
  AllocSiteId siteOf(ObjId O) const {
    return tagAllocSite(H->obj(O).Tag, ContextSlots);
  }
};

} // namespace lud

#endif // LUD_PROFILING_TYPESTATEPROFILER_H
