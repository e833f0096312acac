//===- profiling/GraphIO.cpp - Gcost serialization --------------------------===//

#include "profiling/GraphIO.h"

#include "profiling/DepGraph.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <sstream>

using namespace lud;

void lud::writeGraph(const FrozenGraph &G, OutStream &OS) {
  OS << "ludgraph 1\n";
  OS << "slots " << uint64_t(G.contextSlots()) << "\n";
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    HeapLoc EL = G.effectLoc(N);
    char Buf[192];
    std::snprintf(
        Buf, sizeof(Buf),
        "node %u %u %u %" PRIu64 " %u %u %" PRIu64 " %u %d %d %d %d\n", N,
        G.instr(N), G.domain(N), G.freq(N), unsigned(G.consumer(N)),
        unsigned(G.effect(N)), EL.Tag, EL.Slot, int(G.readsHeap(N)),
        int(G.writesHeap(N)), int(G.isAlloc(N)), int(G.storedRef(N)));
    OS << Buf;
  }
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N)
    for (NodeId S : G.out(N))
      OS << "edge " << uint64_t(N) << " " << uint64_t(S) << "\n";
  for (auto [Store, Alloc] : G.refEdges())
    OS << "refedge " << uint64_t(Store) << " " << uint64_t(Alloc) << "\n";
  // The frozen representation already holds the map-backed records in the
  // canonical order the format requires: allocation entries and the
  // location universe are sorted at seal time, and per-location value
  // sequences are the first-occurrence dedup of the build phase's inserts,
  // so serialize -> parse -> seal -> serialize is byte-stable.
  for (const auto &[Tag, N] : G.allocEntries())
    OS << "allocnode " << Tag << " " << uint64_t(N) << "\n";
  auto WriteLocMap = [&](const char *Kind, auto ValuesAt) {
    for (size_t I = 0; I != G.numLocs(); ++I) {
      auto Vals = ValuesAt(I);
      if (Vals.empty())
        continue;
      HeapLoc Loc = G.loc(I);
      OS << Kind << " " << Loc.Tag << " " << uint64_t(Loc.Slot);
      for (const auto &Item : Vals)
        OS << " " << uint64_t(Item);
      OS << "\n";
    }
  };
  WriteLocMap("writer", [&](size_t I) { return G.writersAt(I); });
  WriteLocMap("reader", [&](size_t I) { return G.readersAt(I); });
  WriteLocMap("refchild", [&](size_t I) { return G.refChildrenAt(I); });
  OS << "end\n";
}

std::unique_ptr<DepGraph> lud::readGraph(std::string_view Text,
                                         std::vector<std::string> &Errors) {
  auto Fail = [&](unsigned Line, const std::string &Msg) {
    Errors.push_back("graph line " + std::to_string(Line) + ": " + Msg);
    return nullptr;
  };

  auto G = std::make_unique<DepGraph>();
  std::istringstream In{std::string(Text)};
  std::string LineStr;
  unsigned LineNo = 0;
  bool SawHeader = false, SawEnd = false;
  // Fixed-arity records must end where their last field does — trailing
  // tokens mean a corrupted or mis-spliced line, not extra data to ignore.
  auto AtLineEnd = [](std::istringstream &L) {
    std::string Rest;
    return !(L >> Rest);
  };
  while (std::getline(In, LineStr)) {
    ++LineNo;
    if (LineStr.empty())
      continue;
    std::istringstream L(LineStr);
    std::string Kind;
    L >> Kind;
    if (!SawHeader) {
      unsigned Version = 0;
      if (Kind != "ludgraph" || !(L >> Version) || Version != 1)
        return Fail(LineNo, "expected 'ludgraph 1' header");
      SawHeader = true;
      continue;
    }
    if (Kind == "slots") {
      uint32_t S = 0;
      if (!(L >> S) || S == 0 || !AtLineEnd(L))
        return Fail(LineNo, "bad slot count");
      G->setContextSlots(S);
    } else if (Kind == "node") {
      uint64_t Id, Instr, Domain, Freq, Consumer, Effect, Tag, Slot;
      int Reads, Writes, Alloc, StoredRef;
      if (!(L >> Id >> Instr >> Domain >> Freq >> Consumer >> Effect >>
            Tag >> Slot >> Reads >> Writes >> Alloc >> StoredRef) ||
          !AtLineEnd(L))
        return Fail(LineNo, "malformed node");
      // Every narrowing cast below is validated first: a clipped or
      // bit-flipped dump must fail with a diagnostic, never wrap into a
      // silently different graph.
      if (Instr > 0xFFFFFFFFull || Domain > 0xFFFFFFFFull ||
          Slot > 0xFFFFFFFFull)
        return Fail(LineNo, "node field out of 32-bit range");
      if (Consumer > uint64_t(ConsumerKind::Native))
        return Fail(LineNo, "bad consumer kind " + std::to_string(Consumer));
      if (Effect > uint64_t(EffectKind::Load))
        return Fail(LineNo, "bad effect kind " + std::to_string(Effect));
      auto IsBool = [](int V) { return V == 0 || V == 1; };
      if (!IsBool(Reads) || !IsBool(Writes) || !IsBool(Alloc) ||
          !IsBool(StoredRef))
        return Fail(LineNo, "node flag out of range");
      NodeId N = G->getOrCreate(InstrId(Instr), uint32_t(Domain));
      if (N != NodeId(Id))
        return Fail(LineNo, "node ids out of order");
      DepGraph::Node &Node = G->node(N);
      G->freq(N) = Freq;
      Node.Consumer = ConsumerKind(Consumer);
      Node.Effect = EffectKind(Effect);
      Node.EffectLoc = {Tag, FieldSlot(Slot)};
      Node.ReadsHeap = Reads;
      Node.WritesHeap = Writes;
      Node.IsAlloc = Alloc;
      Node.StoredRef = StoredRef;
    } else if (Kind == "edge" || Kind == "refedge") {
      uint64_t From, To;
      if (!(L >> From >> To) || From >= G->numNodes() ||
          To >= G->numNodes() || !AtLineEnd(L))
        return Fail(LineNo, "malformed edge");
      if (Kind == "edge")
        G->addEdge(NodeId(From), NodeId(To));
      else
        G->addRefEdge(NodeId(From), NodeId(To));
    } else if (Kind == "allocnode") {
      uint64_t Tag, N;
      if (!(L >> Tag >> N) || N >= G->numNodes() || !AtLineEnd(L))
        return Fail(LineNo, "malformed allocnode");
      G->noteAlloc(Tag, NodeId(N));
    } else if (Kind == "writer" || Kind == "reader") {
      uint64_t Tag, Slot, N;
      if (!(L >> Tag >> Slot) || Slot > 0xFFFFFFFFull)
        return Fail(LineNo, "malformed location");
      HeapLoc Loc{Tag, FieldSlot(Slot)};
      while (L >> N) {
        if (N >= G->numNodes())
          return Fail(LineNo, "bad node in location map");
        if (Kind == "writer")
          G->noteWriter(Loc, NodeId(N));
        else
          G->noteReader(Loc, NodeId(N));
      }
      if (!L.eof())
        return Fail(LineNo, "junk token in location map");
    } else if (Kind == "refchild") {
      uint64_t Tag, Slot, Child;
      if (!(L >> Tag >> Slot) || Slot > 0xFFFFFFFFull)
        return Fail(LineNo, "malformed refchild");
      HeapLoc Loc{Tag, FieldSlot(Slot)};
      while (L >> Child)
        G->noteRefChild(Loc, Child);
      if (!L.eof())
        return Fail(LineNo, "junk token in refchild");
    } else if (Kind == "end") {
      if (!AtLineEnd(L))
        return Fail(LineNo, "junk after 'end'");
      SawEnd = true;
      break;
    } else {
      return Fail(LineNo, "unknown record '" + Kind + "'");
    }
  }
  if (!SawHeader)
    return Fail(LineNo, "missing header");
  if (!SawEnd)
    return Fail(LineNo, "missing 'end' record");
  return G;
}
