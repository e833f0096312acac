//===- tools/lud-analyze.cpp - Offline graph analysis ----------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The offline half of the Section 3.2 hand-off: given a program and a
/// Gcost previously serialized by `lud-run --dump-graph`, re-runs the
/// analyses without executing anything ("the JVM only needs to write Gcost
/// to external storage").
///
///   lud-run --dump-graph prog.graph prog.lud
///   lud-analyze prog.lud prog.graph [--depth N] [--top K]
///
/// A graph that is not a profile of the program is refused with exit 1
/// before anything indexes the module with its ids: first when the module
/// hash in its header is not the program's, then when a record names an
/// instruction, flag or site the program does not have (a crafted dump
/// can carry a valid trailer and the right hash).
///
//===----------------------------------------------------------------------===//

#include "profiling/FrozenGraph.h"
#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "tools/AnalysisRequest.h"
#include "tools/ProgramSource.h"
#include "trace/RunManifest.h"
#include "workloads/Render.h"

#include <cerrno>
#include <cstring>
#include <string>
#include <vector>

using namespace lud;

namespace {

/// Checks that \p G is a profile of \p M: every node's instruction lies in
/// the module and carries that instruction's heap and allocation flags,
/// every allocation tag names the allocation site of its node's
/// instruction, and every heap-location tag names an allocation site or a
/// global of the module. The analyses index the module with these ids
/// unchecked, so a graph dumped from another program has to stop here.
/// Returns the first mismatch, or an empty string.
std::string findModuleMismatch(const DepGraph &G, const Module &M) {
  auto NodeName = [&](NodeId N) {
    return "node " + std::to_string(N) + " (instruction " +
           std::to_string(G.node(N).Instr) + ")";
  };
  auto TagKnown = [&](uint64_t Tag) {
    return DepGraph::isStaticTag(Tag)
               ? Tag - kStaticTagBase < M.globals().size()
               : Tag / G.contextSlots() < M.getNumAllocSites();
  };
  auto NoSuchTag = [](uint64_t Tag) {
    return "tag " + std::to_string(Tag) +
           ", which names no allocation site or global of the program";
  };
  for (NodeId N = 0; N != G.numNodes(); ++N) {
    const DepGraph::Node &Node = G.node(N);
    if (Node.Instr >= M.getNumInstrs())
      return NodeName(N) + " lies past the program's " +
             std::to_string(M.getNumInstrs()) + " instructions";
    const Instruction &I = *M.getInstr(Node.Instr);
    if (Node.ReadsHeap != I.readsHeap() ||
        Node.WritesHeap != I.writesHeap() || Node.IsAlloc != I.isAlloc())
      return NodeName(N) + " differs from the program's instruction in " +
             "its heap/allocation flags";
    if (Node.Effect != EffectKind::None && !TagKnown(Node.EffectLoc.Tag))
      return NodeName(N) + " has an effect on " +
             NoSuchTag(Node.EffectLoc.Tag);
  }
  for (const DepGraph::LocRecord &R : G.records()) {
    const std::vector<NodeId> &Nodes = R.Writers.empty() ? R.Readers : R.Writers;
    if (!TagKnown(R.Loc.Tag)) {
      if (!Nodes.empty())
        return NodeName(Nodes.front()) + " accesses " + NoSuchTag(R.Loc.Tag);
      if (!R.RefChildren.empty())
        return "a reference-child record names " + NoSuchTag(R.Loc.Tag);
    }
    for (uint64_t Child : R.RefChildren)
      if (!TagKnown(Child))
        return "a reference-child record names " + NoSuchTag(Child);
  }
  for (const auto &[Tag, N] : G.allocNodes())
    if (DepGraph::isStaticTag(Tag) || !TagKnown(Tag) ||
        M.getAllocSite(G.tagSite(Tag))->getId() != G.node(N).Instr)
      return NodeName(N) + " allocates tag " + std::to_string(Tag) +
             ", which names no allocation site of the program there";
  return {};
}

} // namespace

int main(int argc, char **argv) {
  cli::ProgramSource Src;
  cli::AnalysisRequest Req;
  cli::OptionSet P("lud-analyze", "<program.lud> <gcost.graph>");
  Req.declare(P, cli::AnalysisRequest::ShapeOpts);
  if (!P.parse(argc, argv)) {
    P.usage();
    return 2;
  }
  if (P.exitRequested())
    return 0;
  if (P.positionals().size() != 2) {
    P.usage();
    return 2;
  }
  Src.File = P.positionals()[0];
  const std::string &GraphPath = P.positionals()[1];

  int LoadRc = 0;
  std::unique_ptr<Module> M = Src.load(LoadRc);
  if (!M)
    return LoadRc;
  std::string GraphText;
  if (!readFileBytes(GraphPath, GraphText)) {
    errs() << "cannot read '" << GraphPath << "': " << std::strerror(errno)
             << "\n";
    return 1;
  }
  std::vector<std::string> Errors;
  uint64_t DumpHash = 0;
  std::unique_ptr<DepGraph> G = readGraph(GraphText, Errors, &DumpHash);
  if (!G) {
    for (const std::string &E : Errors)
      errs() << GraphPath << ": " << E << "\n";
    return 1;
  }

  uint64_t ProgramHash = trace::moduleHash(*M);
  std::string Mismatch =
      DumpHash != ProgramHash
          ? "module hash " + hashHex(DumpHash) + " in the dump, " +
                hashHex(ProgramHash) + " for the program"
          : findModuleMismatch(*G, *M);
  if (!Mismatch.empty()) {
    errs() << GraphPath << ": not a profile of '" << Src.File
           << "': " << Mismatch << "\n";
    return 1;
  }

  // The build-phase graph is done mutating: seal it and analyze the packed
  // representation only.
  FrozenGraph FG = FrozenGraph::seal(std::move(*G));
  G.reset();

  OutStream &OS = outs();
  OS << "offline Gcost: " << uint64_t(FG.numNodes()) << " nodes, "
     << uint64_t(FG.numEdges()) << " edges, covering " << FG.totalFreq()
     << " instruction instances\n";

  // No profiler state offline: the graph-only sections, relative to the
  // instances the graph covers.
  Req.Spec.Report = Req.Spec.Caches = true;
  renderAnalysisSections(*M, nullptr, FG, Req.Spec, OS);
  renderBloatMetrics(FG, FG.totalFreq(), OS,
                            "relative to covered instances");
  return 0;
}
