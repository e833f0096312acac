//===- tests/profiling/GraphIOTest.cpp - Gcost serialization ---------------===//

#include "../TestUtil.h"

#include "analysis/CostModel.h"
#include "analysis/DeadValues.h"
#include "analysis/Report.h"
#include "ir/IRBuilder.h"
#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

using namespace lud;
using namespace lud::test;

namespace {

std::unique_ptr<DepGraph> roundTrip(const DepGraph &G) {
  StringOutStream OS;
  writeGraph(FrozenGraph(G), OS);
  std::vector<std::string> Errors;
  std::unique_ptr<DepGraph> G2 = readGraph(OS.str(), Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  return G2;
}

TEST(GraphIOTest, RoundTripPreservesStructure) {
  Workload W = buildWorkload("eclipse", 64);
  ProfiledRun P = profiledRun(*W.M);
  const DepGraph &G = P.Prof->graph();
  std::unique_ptr<DepGraph> G2 = roundTrip(G);
  ASSERT_TRUE(G2);

  ASSERT_EQ(G2->numNodes(), G.numNodes());
  EXPECT_EQ(G2->numEdges(), G.numEdges());
  EXPECT_EQ(G2->numRefEdges(), G.numRefEdges());
  EXPECT_EQ(G2->contextSlots(), G.contextSlots());
  EXPECT_EQ(G2->totalFreq(), G.totalFreq());
  // Locations with each kind of list.
  auto Listed = [](const DepGraph &D, auto List) {
    size_t N = 0;
    for (const DepGraph::LocRecord &R : D.records())
      N += !(R.*List).empty();
    return N;
  };
  using R = DepGraph::LocRecord;
  EXPECT_EQ(Listed(*G2, &R::Writers), Listed(G, &R::Writers));
  EXPECT_EQ(Listed(*G2, &R::Readers), Listed(G, &R::Readers));
  EXPECT_EQ(Listed(*G2, &R::RefChildren), Listed(G, &R::RefChildren));
  EXPECT_EQ(G2->allocNodes().size(), G.allocNodes().size());
  const FrozenGraph F(G), F2(*G2);
  for (NodeId N = 0; N != NodeId(G.numNodes()); ++N) {
    const DepGraph::Node &A = G.node(N);
    const DepGraph::Node &B = G2->node(N);
    ASSERT_EQ(A.Instr, B.Instr);
    ASSERT_EQ(A.Domain, B.Domain);
    ASSERT_EQ(G.freq(N), G2->freq(N));
    ASSERT_EQ(A.Consumer, B.Consumer);
    ASSERT_EQ(A.ReadsHeap, B.ReadsHeap);
    ASSERT_EQ(A.WritesHeap, B.WritesHeap);
    ASSERT_EQ(F.inDegree(N), F2.inDegree(N));
    ASSERT_EQ(F.outDegree(N), F2.outDegree(N));
  }
}

TEST(GraphIOTest, OfflineAnalysesMatchOnline) {
  // The Section 3.2 workflow: serialize Gcost, reload it "offline", and
  // get identical analysis results.
  Workload W = buildWorkload("chart", 100);
  ProfiledRun P = profiledRun(*W.M);
  std::unique_ptr<DepGraph> G2 = roundTrip(P.Prof->graph());
  ASSERT_TRUE(G2);

  const FrozenGraph Online(P.Prof->graph());
  const FrozenGraph Offline(*G2);
  CostModel OnCM(Online);
  CostModel OffCM(Offline);
  LowUtilityReport OnReport(OnCM, *W.M);
  LowUtilityReport OffReport(OffCM, *W.M);
  ASSERT_EQ(OnReport.sites().size(), OffReport.sites().size());
  for (size_t I = 0; I != OnReport.sites().size(); ++I) {
    EXPECT_EQ(OnReport.sites()[I].Site, OffReport.sites()[I].Site);
    EXPECT_DOUBLE_EQ(OnReport.sites()[I].NRac, OffReport.sites()[I].NRac);
    EXPECT_DOUBLE_EQ(OnReport.sites()[I].NRab, OffReport.sites()[I].NRab);
  }

  BloatMetrics On = computeDeadValues(Online, P.Run.ExecutedInstrs).Metrics;
  BloatMetrics Off = computeDeadValues(Offline, P.Run.ExecutedInstrs).Metrics;
  EXPECT_EQ(On.DeadFreq, Off.DeadFreq);
  EXPECT_EQ(On.PredOnlyFreq, Off.PredOnlyFreq);
  EXPECT_EQ(On.DeadNodes, Off.DeadNodes);
}

TEST(GraphIOTest, MergedGraphRoundTripsByteIdentical) {
  // The parallel driver serializes graphs that went through mergeFrom;
  // the merged form must survive a serialize -> parse -> serialize cycle
  // byte for byte, or offline analyses of sharded runs drift.
  Workload W = buildWorkload("eclipse", 48);
  ProfiledRun A = profiledRun(*W.M);
  ProfiledRun B = profiledRun(*W.M);
  A.Prof->mergeFrom(*B.Prof);

  StringOutStream First;
  writeGraph(FrozenGraph(A.Prof->graph()), First);
  std::vector<std::string> Errors;
  std::unique_ptr<DepGraph> G2 = readGraph(First.str(), Errors);
  for (const std::string &E : Errors)
    ADD_FAILURE() << E;
  ASSERT_TRUE(G2);
  StringOutStream Second;
  writeGraph(FrozenGraph(*G2), Second);
  EXPECT_EQ(First.str(), Second.str());
}

/// \p Bytes followed by the 'end <hash>' trailer that hashes them.
std::string withTrailer(const std::string &Bytes) {
  HashOutStream H;
  H << Bytes;
  return Bytes + "end " + hashHex(H.hash()) + "\n";
}

/// A v2 dump of \p Body with a valid trailer, so a case reaches the record
/// parser.
std::string sealedDump(const std::string &Body,
                       const std::string &Header =
                           "ludgraph 2 module=0000000000000000 slots=4\n") {
  return withTrailer(Header + Body);
}

TEST(GraphIOTest, RejectsMalformedInput) {
  struct Case {
    std::string Text;
    const char *Expect;
  };
  const Case Cases[] = {
      {"", "graph line 1: expected 'ludgraph 2' header"},
      {"graph 2\nend\n", "graph line 1: expected 'ludgraph 2' header"},
      // A dump of another version names it.
      {"ludgraph 1\nslots 1\nend\n", "graph line 1: unsupported ludgraph "
                                     "version '1'"},
      {"ludgraph 3 module=0000000000000000 slots=1\nend\n",
       "unsupported ludgraph version '3'"},
      // The trailer: missing, clipped, or not the hash of the bytes.
      {"ludgraph 2 module=0000000000000000 slots=1\n",
       "graph line 1: missing 'end <hash>' trailer"},
      {"ludgraph 2 module=0000000000000000 slots=1\nend\n",
       "graph line 2: missing 'end <hash>' trailer"},
      {"ludgraph 2 module=0000000000000000 slots=1\nend 0123",
       "graph line 2: missing 'end <hash>' trailer (truncated dump)"},
      {"ludgraph 2 module=0000000000000000 slots=1\nend 0123456789ABCDEF\n",
       "graph line 2: missing 'end <hash>' trailer"},
      {"ludgraph 2 module=0000000000000000 slots=1\nend 0123456789abcdef\n",
       "graph line 2: checksum mismatch: the trailer states "
       "0123456789abcdef"},
      // Sealed dumps whose records are bad.
      {sealedDump("node 0 0\n"), "graph line 2: malformed node"},
      {sealedDump("edge 0 1\n"), "graph line 2: malformed edge"},
      {sealedDump("\nbogus\n"), "graph line 3: unknown record 'bogus'"},
      {sealedDump("slots 4\n"), "unknown record 'slots'"},
      {sealedDump("end\n"), "unknown record 'end'"},
      // Sealed dumps whose header fields are bad.
      {sealedDump("", "ludgraph 2 module=00 slots=4\n"),
       "graph line 1: bad module hash"},
      {sealedDump("", "ludgraph 2 slots=4\n"), "bad module hash"},
      {sealedDump("", "ludgraph 2 module=0000000000000000\n"),
       "bad slot count"},
      {sealedDump("", "ludgraph 2 module=0000000000000000 slots=0\n"),
       "bad slot count"},
      {sealedDump("", "ludgraph 2 module=0000000000000000 slots=-1\n"),
       "bad slot count"},
      {sealedDump("",
                  "ludgraph 2 module=0000000000000000 slots=4294967296\n"),
       "bad slot count"},
      {sealedDump("", "ludgraph 2 module=0000000000000000 slots=4 junk\n"),
       "bad slot count"},
  };
  for (const Case &C : Cases) {
    std::vector<std::string> Errors;
    std::unique_ptr<DepGraph> G = readGraph(C.Text, Errors);
    EXPECT_EQ(G, nullptr) << C.Text;
    ASSERT_FALSE(Errors.empty()) << C.Text;
    EXPECT_NE(Errors[0].find(C.Expect), std::string::npos)
        << "got: " << Errors[0];
  }
}

TEST(GraphIOTest, HeaderCarriesModuleHashAndSlots) {
  DepGraph G;
  G.setContextSlots(3);
  G.getOrCreate(1, 0);
  StringOutStream OS;
  writeGraph(FrozenGraph(G), OS, 0x0123456789abcdefULL);
  EXPECT_EQ(OS.str().substr(0, OS.str().find('\n')),
            "ludgraph 2 module=0123456789abcdef slots=3");
  std::vector<std::string> Errors;
  uint64_t Hash = 0;
  std::unique_ptr<DepGraph> G2 = readGraph(OS.str(), Errors, &Hash);
  ASSERT_TRUE(G2) << (Errors.empty() ? "" : Errors[0]);
  EXPECT_EQ(Hash, 0x0123456789abcdefULL);
  EXPECT_EQ(G2->contextSlots(), 3u);
  EXPECT_EQ(G2->numNodes(), 1u);
  // The trailer is the hash of every byte before it.
  const std::string &Text = OS.str();
  size_t TrailerAt = Text.rfind('\n', Text.size() - 2) + 1;
  EXPECT_EQ(withTrailer(Text.substr(0, TrailerAt)), Text);
}

TEST(GraphIOTest, RejectsOutOfRangeFields) {
  // A valid two-node prefix every case builds on.
  const std::string Head = "node 0 1 0 5 0 0 0 0 0 0 0 0\n"
                           "node 1 2 0 5 0 0 0 0 0 0 0 0\n";
  struct Case {
    const char *Line;
    const char *Expect;
  };
  const Case Cases[] = {
      // Enum discriminants past the last enumerator.
      {"node 2 3 0 5 3 0 0 0 0 0 0 0", "bad consumer kind"},
      {"node 2 3 0 5 0 4 0 0 0 0 0 0", "bad effect kind"},
      // 32-bit fields fed 2^32.
      {"node 2 4294967296 0 5 0 0 0 0 0 0 0 0", "out of 32-bit range"},
      {"node 2 3 4294967296 5 0 0 0 0 0 0 0 0", "out of 32-bit range"},
      {"node 2 3 0 5 0 0 0 4294967296 0 0 0 0", "out of 32-bit range"},
      // Flags must be 0/1.
      {"node 2 3 0 5 0 0 0 0 2 0 0 0", "node flag out of range"},
      {"node 2 3 0 5 0 0 0 0 0 0 0 7", "node flag out of range"},
      // Trailing junk on fixed-arity records.
      {"node 2 3 0 5 0 0 0 0 0 0 0 0 junk", "malformed node"},
      {"edge 0 1 junk", "malformed edge"},
      {"refedge 0 1 2", "malformed edge"},
      {"allocnode 7 0 junk", "malformed allocnode"},
      // Junk tokens inside var-arity location maps.
      {"writer 7 0 1 junk", "junk token in location map"},
      {"reader 7 0 junk", "junk token in location map"},
      {"refchild 7 0 1 junk", "junk token in refchild"},
  };
  for (const Case &C : Cases) {
    std::vector<std::string> Errors;
    std::string Text = sealedDump(Head + C.Line + "\n");
    std::unique_ptr<DepGraph> G = readGraph(Text, Errors);
    EXPECT_EQ(G, nullptr) << C.Line;
    ASSERT_FALSE(Errors.empty()) << C.Line;
    EXPECT_NE(Errors[0].find("graph line 4: "), std::string::npos)
        << "for '" << C.Line << "' got: " << Errors[0];
    EXPECT_NE(Errors[0].find(C.Expect), std::string::npos)
        << "for '" << C.Line << "' got: " << Errors[0];
  }
}

TEST(GraphIOTest, ClippedDumpFailsWithDiagnostic) {
  // Truncating a real dump at any line boundary must produce an error (a
  // diagnostic, never a crash or a silently smaller graph).
  Workload W = buildWorkload("chart", 64);
  ProfiledRun P = profiledRun(*W.M);
  StringOutStream OS;
  writeGraph(FrozenGraph(P.Prof->graph()), OS);
  const std::string &Full = OS.str();
  for (size_t Frac = 1; Frac != 8; ++Frac) {
    size_t Cut = Full.find('\n', Full.size() * Frac / 8);
    if (Cut == std::string::npos || Cut + 1 == Full.size())
      continue;
    std::vector<std::string> Errors;
    std::unique_ptr<DepGraph> G =
        readGraph(std::string_view(Full).substr(0, Cut + 1), Errors);
    EXPECT_EQ(G, nullptr) << "cut at " << Cut;
    EXPECT_FALSE(Errors.empty()) << "cut at " << Cut;
  }
}

TEST(GraphIOTest, BitFlippedDumpNeverCrashes) {
  // Deterministically corrupt single characters across the dump (every
  // 31st byte, two masks: 0x15, and 0x01, which turns one digit into
  // another). The trailer's checksum must reject every mutant with a
  // line-numbered diagnostic. Resealed with a valid trailer — a crafted
  // dump — a mutant must either fail cleanly or parse, seal and analyze
  // without a crash.
  Workload W = buildWorkload("fop", 48);
  ProfiledRun P = profiledRun(*W.M);
  StringOutStream OS;
  writeGraph(FrozenGraph(P.Prof->graph()), OS);
  std::string Text = OS.str();
  const size_t TrailerAt = Text.rfind('\n', Text.size() - 2) + 1;
  size_t Mutants = 0, Accepted = 0;
  for (size_t I = 0; I < Text.size(); I += 31) {
    for (char Bits : {0x15, 0x01}) {
      std::string Mutated = Text;
      Mutated[I] = char(Mutated[I] ^ Bits);
      ++Mutants;
      std::vector<std::string> Errors;
      EXPECT_EQ(readGraph(Mutated, Errors), nullptr) << "flip at " << I;
      ASSERT_FALSE(Errors.empty()) << "flip at " << I;
      EXPECT_EQ(Errors[0].rfind("graph line ", 0), 0u)
          << "flip at " << I << ": " << Errors[0];

      if (I >= TrailerAt)
        continue; // Resealing would undo a flip in the trailer itself.
      std::string Resealed = withTrailer(Mutated.substr(0, TrailerAt));
      Errors.clear();
      std::unique_ptr<DepGraph> G = readGraph(Resealed, Errors);
      if (!G) {
        EXPECT_FALSE(Errors.empty()) << "resealed flip at " << I;
        continue;
      }
      ++Accepted;
      const FrozenGraph F = FrozenGraph::seal(std::move(*G));
      CostModel CM(F);
      LowUtilityReport Report(CM, *W.M);
      DeadValueAnalysis DV = computeDeadValues(F, P.Run.ExecutedInstrs);
      EXPECT_EQ(DV.Dead.size(), F.numNodes()) << "resealed flip at " << I;
    }
  }
  EXPECT_GT(Mutants, 600u);
  // The read side must actually be reached by some resealed mutants.
  EXPECT_GT(Accepted, 0u);
}

TEST(GraphIOTest, EmptyGraphRoundTrips) {
  DepGraph G;
  G.setContextSlots(8);
  std::unique_ptr<DepGraph> G2 = roundTrip(G);
  ASSERT_TRUE(G2);
  EXPECT_EQ(G2->numNodes(), 0u);
  EXPECT_EQ(G2->contextSlots(), 8u);
}

} // namespace
