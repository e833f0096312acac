//===- profiling/TypestateProfiler.cpp - Typestate history client ----------===//

#include "profiling/TypestateProfiler.h"

#include "ir/Module.h"
#include "obs/Metrics.h"

using namespace lud;

TypestateProfiler::TypestateProfiler(TypestateSpec Spec_,
                                     const SlicingConfig &Cfg)
    : Spec(std::move(Spec_)), ContextSlots(Cfg.ContextSlots) {
  G.setHotPathMemo(Cfg.HotPathCaches);
  for (const auto &[Key, To] : Spec.Transitions)
    if ((Key >> 32) < Spec.NumStates)
      Alphabet.insert(MethodNameId(Key));
}

void TypestateProfiler::onRunStart(const Module &Mod, Heap &Heap_) {
  H = &Heap_;
  // Object ids restart with every run's heap, so per-object state does
  // not carry over: a reused profiler must match a merge of single-run
  // profilers, as the substrate's per-run shadow reset does.
  StateOf.clear();
  LastEvent.clear();
  G.armMemo(Mod.getNumInstrs());
}

void TypestateProfiler::ensure(ObjId O) {
  if (StateOf.size() <= O) {
    StateOf.resize(H->idBound(), Spec.InitialState);
    LastEvent.resize(H->idBound(), kNoNode);
  }
}

void TypestateProfiler::onAlloc(const AllocInst &I, ObjId O) {
  ensure(O);
  if (!Spec.tracks(I.Class))
    return;
  StateOf[O] = Spec.InitialState;
}

void TypestateProfiler::onCallEnter(const CallInst &I, const Function &,
                                    ObjId Receiver) {
  if (Receiver == kNullObj || !I.isVirtual())
    return;
  if (!Spec.tracks(H->obj(Receiver).Class))
    return;
  AllocSiteId Site = siteOf(Receiver);
  if (Site == kNoAllocSite)
    return;
  ensure(Receiver);
  // Only events in the protocol's alphabet are state-changing.
  if (!Alphabet.contains(I.Method))
    return;
  uint32_t State = StateOf[Receiver];
  NodeId N = G.hit(I.getId(), domainOf(Site, State));
  // Memorize the last event per object (Section 2.1).
  if (LastEvent[Receiver] != kNoNode)
    addEvent({LastEvent[Receiver], N, I.Method});
  LastEvent[Receiver] = N;

  auto It = Spec.Transitions.find(TypestateSpec::key(State, I.Method));
  if (It == Spec.Transitions.end()) {
    Violations.push_back({I.getId(), Site, State, I.Method});
    return; // State unchanged after a violation.
  }
  StateOf[Receiver] = It->second;
}

void TypestateProfiler::accountStats(obs::MetricsRegistry &R) const {
  R.set(R.gauge("typestate.events"), Events.size());
  R.set(R.gauge("typestate.violations"), Violations.size());
  R.set(R.gauge("typestate.graph.nodes"), G.numNodes());
  R.set(R.gauge("typestate.graph.edges"), G.numEdges());
  R.set(R.gauge("mem.typestate.graph_bytes", obs::Unit::Bytes),
        G.memoryFootprint().total() + G.memoBytes());
}

void TypestateProfiler::mergeFrom(const TypestateProfiler &O) {
  std::vector<NodeId> Remap = G.mergeFrom(O.G);
  for (const TypestateViolation &V : O.Violations)
    Violations.push_back(V);
  for (const EventEdge &E : O.Events)
    addEvent({Remap[E.From], Remap[E.To], E.Method});
}

std::string TypestateProfiler::describeHistory(const Module &Mod) const {
  std::string Out;
  for (const EventEdge &E : Events) {
    const DepGraph::Node &From = G.node(E.From);
    const DepGraph::Node &To = G.node(E.To);
    auto Render = [&](const DepGraph::Node &N) {
      AllocSiteId Site = N.Domain / Spec.NumStates;
      uint32_t State = N.Domain % Spec.NumStates;
      return Mod.describeAllocSite(Site) + ":s" + std::to_string(State);
    };
    Out += Render(From) + " -" + Mod.methodNames()[E.Method] + "-> " +
           Render(To) + "\n";
  }
  return Out;
}

TypestateSpec lud::lifecycleSpec(const Module &M) {
  auto IsCloser = [&](MethodNameId Id) {
    const std::string &Name = M.methodNames()[Id];
    return Name == "close" || Name == "dispose" || Name == "free" ||
           Name == "release";
  };
  TypestateSpec Spec;
  for (const std::unique_ptr<ClassDecl> &C : M.classes()) {
    bool HasCloser = false;
    for (const auto &[Method, Func] : C->Vtable)
      HasCloser |= IsCloser(Method);
    if (!HasCloser)
      continue;
    Spec.TrackedClasses.push_back(C->getId());
    // Closer-ness depends only on the method name, so classes sharing
    // method names write identical transitions: the spec is deterministic
    // whatever the vtable iteration order.
    for (const auto &[Method, Func] : C->Vtable) {
      uint32_t To = IsCloser(Method) ? 2 : 1;
      Spec.addTransition(0, Method, To);
      Spec.addTransition(1, Method, To);
    }
  }
  if (Spec.TrackedClasses.empty())
    return Spec;
  Spec.NumStates = 3; // 0 fresh, 1 in use, 2 closed (terminal).
  Spec.InitialState = 0;
  return Spec;
}
