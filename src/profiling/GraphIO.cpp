//===- profiling/GraphIO.cpp - Gcost serialization --------------------------===//

#include "profiling/GraphIO.h"

#include "profiling/DepGraph.h"
#include "profiling/FrozenGraph.h"
#include "support/OutStream.h"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdio>
#include <sstream>

using namespace lud;

namespace {

/// Parses exactly 16 lowercase hex digits, as hashHex writes them.
bool parseHex16(std::string_view S, uint64_t &V) {
  if (S.size() != 16)
    return false;
  V = 0;
  for (char C : S) {
    unsigned D;
    if (C >= '0' && C <= '9')
      D = unsigned(C - '0');
    else if (C >= 'a' && C <= 'f')
      D = unsigned(C - 'a' + 10);
    else
      return false;
    V = V << 4 | D;
  }
  return true;
}

} // namespace

void lud::writeGraph(const FrozenGraph &G, OutStream &Out,
                     uint64_t ModuleHash) {
  // Every byte up to the trailer goes through the hash the trailer states.
  HashOutStream OS(&Out);
  OS << "ludgraph 2 module=" << hashHex(ModuleHash)
     << " slots=" << uint64_t(G.contextSlots()) << "\n";
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
  Out << "end " << hashHex(OS.hash()) << "\n";
}

std::unique_ptr<DepGraph> lud::readGraph(std::string_view Text,
                                         std::vector<std::string> &Errors,
                                         uint64_t *ModuleHash) {
  auto Fail = [&](unsigned Line, const std::string &Msg) {
    Errors.push_back("graph line " + std::to_string(Line) + ": " + Msg);
    return nullptr;
  };
  // Fixed-arity records must end where their last field does — trailing
  // tokens mean a corrupted or mis-spliced line, not extra data to ignore.
  auto AtLineEnd = [](std::istringstream &L) {
    std::string Rest;
    return !(L >> Rest);
  };

  // The version first, so a dump of another version says so.
  size_t HeaderLen = std::min(Text.find('\n'), Text.size());
  std::istringstream Header{std::string(Text.substr(0, HeaderLen))};
  std::string Magic, Version;
  if (!(Header >> Magic >> Version) || Magic != "ludgraph")
    return Fail(1, "expected 'ludgraph 2' header");
  if (Version != "2")
    return Fail(1, "unsupported ludgraph version '" + Version.substr(0, 16) +
                       "' (this build reads version 2; dump the graph again)");

  // Then the trailer: 'end <hash>' ends the text, and hashes every byte
  // before it.
  unsigned NumLines = unsigned(std::count(Text.begin(), Text.end(), '\n'));
  if (Text.back() != '\n')
    return Fail(NumLines + 1, "missing 'end <hash>' trailer (truncated dump)");
  size_t TrailerAt = Text.find_last_of('\n', Text.size() - 2);
  TrailerAt = TrailerAt == std::string_view::npos ? 0 : TrailerAt + 1;
  std::string_view Trailer =
      Text.substr(TrailerAt, Text.size() - 1 - TrailerAt);
  uint64_t Stated = 0;
  if (TrailerAt == 0 || Trailer.substr(0, 4) != "end " ||
      !parseHex16(Trailer.substr(4), Stated))
    return Fail(NumLines, "missing 'end <hash>' trailer");
  HashOutStream Body;
  Body << Text.substr(0, TrailerAt);
  if (Body.hash() != Stated)
    return Fail(NumLines, "checksum mismatch: the trailer states " +
                              hashHex(Stated) +
                              ", the bytes before it hash to " +
                              hashHex(Body.hash()));

  auto G = std::make_unique<DepGraph>();
  std::string Module;
  uint32_t Slots = 0;
  uint64_t Hash = 0;
  if (!(Header >> Module) || Module.substr(0, 7) != "module=" ||
      !parseHex16(std::string_view(Module).substr(7), Hash))
    return Fail(1, "bad module hash in header");
  std::string SlotsField;
  if (!(Header >> SlotsField) || SlotsField.substr(0, 6) != "slots=" ||
      !AtLineEnd(Header))
    return Fail(1, "bad slot count");
  // from_chars takes digits only: no sign, so "-1" cannot wrap.
  const char *SlotsEnd = SlotsField.data() + SlotsField.size();
  auto [SlotsPtr, SlotsErr] =
      std::from_chars(SlotsField.data() + 6, SlotsEnd, Slots);
  if (SlotsErr != std::errc() || SlotsPtr != SlotsEnd || Slots == 0)
    return Fail(1, "bad slot count");
  G->setContextSlots(Slots);

  std::istringstream In{
      std::string(Text.substr(HeaderLen + 1, TrailerAt - HeaderLen - 1))};
  std::string LineStr;
  unsigned LineNo = 1;
  while (std::getline(In, LineStr)) {
    ++LineNo;
    if (LineStr.empty())
      continue;
    std::istringstream L(LineStr);
    std::string Kind;
    L >> Kind;
    if (Kind == "node") {
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
      if (Node.Effect == EffectKind::Store || Node.Effect == EffectKind::Load)
        Node.EffectLocId = G->internLoc(Node.EffectLoc);
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
      LocId Loc = G->internLoc({Tag, FieldSlot(Slot)});
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
      LocId Loc = G->internLoc({Tag, FieldSlot(Slot)});
      while (L >> Child)
        G->noteRefChild(Loc, Child);
      if (!L.eof())
        return Fail(LineNo, "junk token in refchild");
    } else {
      return Fail(LineNo, "unknown record '" + Kind + "'");
    }
  }
  if (ModuleHash)
    *ModuleHash = Hash;
  return G;
}
