//===- tests/analysis/PinnedBytesTest.cpp - Pinned output bytes ------------===//
//
// Fixed hashes of the obfuscator's output and of the substrate's Gcost. Two runs of one build agreeing
// with each other (ObfuscateTest.DeterministicForAFixedSeed) says nothing
// about whether a refactor of the module-building code changed the bytes;
// these pins do. The printed module (trace::moduleHash) and the manifest
// text (one "<kind>\t<description>" line per site, as
// --obfuscate-manifest writes it) are hashed with 64-bit FNV-1a.
//
// The lud-run --optimize-out pins live in tests/cli/pinned_optimize.sh.
//
// The Gcost pins hash, per workload and engine, the --dump-graph bytes
// (`ludgraph 2`, integers only) and the integer heap-activity and
// predicate gauges, so a refactor of the build graph, the seal or the
// substrate's counters cannot change what a profile says unnoticed.
//
// The trace pins hash the recorder's counts — the trace.* gauges (per
// hook and per phase) and the manifest with its events= total — which
// must come out the same whether the recorder runs alone (a capture),
// ahead of the substrate (a recorded profile), or re-executes a manifest
// (a replay), on either engine, for a whole run and one its instruction
// budget stops.
//
// A deliberate change to the pinned bytes must update the tables below
// and say so; an accidental one fails here.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "ir/Obfuscate.h"
#include "obs/Metrics.h"
#include "profiling/FrozenGraph.h"
#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "trace/RunManifest.h"
#include "trace/TraceRecorder.h"
#include "workloads/Composed.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

using namespace lud;

namespace {

constexpr int64_t kScale = 200;

uint64_t fnv1a(const std::string &S) {
  uint64_t H = 0xcbf29ce484222325ULL;
  for (unsigned char C : S) {
    H ^= C;
    H *= 0x100000001b3ULL;
  }
  return H;
}

struct Pin {
  const char *Workload;
  uint64_t Seed;
  const char *ModuleHash;
  const char *ManifestHash;
};

const Pin Pins[] = {
    {"chart", 1, "32b2241bc14700f9", "f2ccd0e48ac7ad57"},
    {"chart", 7, "67d31236d2afae08", "59e0bd09d4ff65dc"},
    {"sunflow", 1, "3cfa30741465b1e6", "0650a1bf57fb6d74"},
    {"sunflow", 7, "30a6dbe8feacab3c", "b000bce16924be49"},
    {"derby", 1, "9aeace1192f70e7c", "5412a54ef7a149d3"},
    {"derby", 7, "92810b1ffb5d0e21", "a0f98151fdbe4b18"},
    {"bloat", 1, "f22f5cae22d70dd3", "2e1000ae34d3e914"},
    {"bloat", 7, "8b3f83b81702811c", "4b1b788f05f9c72e"},
};

TEST(PinnedBytesTest, ObfuscatedModuleAndManifestBytes) {
  for (const Pin &P : Pins) {
    Workload W = buildWorkload(P.Workload, kScale);
    ObfuscateOptions Opts;
    Opts.Seed = P.Seed;
    Opts.Junk = Opts.Opaque = Opts.Strings = true;
    ObfuscationResult Res = obfuscateModule(*W.M, Opts);

    std::string Manifest;
    for (const ObfSiteTag &T : Res.Manifest)
      Manifest += std::string(obfKindName(T.Kind)) + "\t" + T.Description +
                  "\n";

    EXPECT_EQ(hashHex(trace::moduleHash(*Res.M)), P.ModuleHash)
        << P.Workload << " seed " << P.Seed << ": printed module";
    EXPECT_EQ(hashHex(fnv1a(Manifest)), P.ManifestHash)
        << P.Workload << " seed " << P.Seed << ": manifest";
  }
}

struct GcostPin {
  const char *Workload; // a DaCapo analogue at scale 48, or composed at 40
  const char *DumpHash;
  const char *GaugeHash;
};

const GcostPin GcostPins[] = {
    {"antlr", "f56811c0cb240348", "b478ab93928f766e"},
    {"bloat", "655f4108a9c24613", "c41729bba9127c4d"},
    {"chart", "8c0f3f1cf10ba84a", "596eeacc2b271574"},
    {"fop", "6210c12c2a300342", "b34a954970def668"},
    {"pmd", "253bb1731c8bab1d", "cd904e3c8a5265b0"},
    {"jython", "228a4d341b29a5bc", "70d715bde7fd8c90"},
    {"xalan", "df31196df16e37fb", "f49f77c71936f610"},
    {"hsqldb", "9a6e40c5d4fc78de", "b9d6f5f4a4279ab5"},
    {"luindex", "7e05226146b54f95", "209535da7cebce25"},
    {"lusearch", "fc8aa82e059c6a2b", "ea6d5e2fb32259a0"},
    {"eclipse", "9319e1210c51b489", "5e400fa071a87e1a"},
    {"avrora", "623e4dab9183fe3c", "054b18ffd07513a7"},
    {"batik", "0a11feba3aa8a604", "3cb07f994c8cb6ff"},
    {"derby", "23df7e7ba4499587", "4c4064924212c33a"},
    {"sunflow", "5b0f08d44422bfa7", "8b2581467de46487"},
    {"tomcat", "d477264698ff58f5", "1ee5cbbead998410"},
    {"tradebeans", "ed76d55dec110c4e", "47098560f3a42e6a"},
    {"tradesoap", "f63f7d799a111010", "550f0345271b4cf8"},
    {"composed", "65d1d7cbe4a38b12", "e9b331e8df68f91a"},
};

/// The --dump-graph bytes and the integer heap/predicate gauges of one
/// profiled run of workload \p Name on \p E.
std::pair<std::string, std::string> gcostBytes(const std::string &Name,
                                               EngineKind E) {
  Workload W = Name == "composed" ? buildComposedWorkload(40)
                                  : buildWorkload(Name, 48);
  SessionConfig Cfg;
  Cfg.Engine = E;
  ProfileSession S(Cfg);
  EXPECT_EQ(S.run(*W.M).Run.Status, RunStatus::Finished) << Name;
  StringOutStream Dump;
  writeGraph(FrozenGraph(S.slicing()->graph()), Dump,
             trace::moduleHash(*W.M));
  obs::MetricsRegistry R;
  S.slicing()->accountStats(R);
  std::string Gauges;
  for (const char *G : {"heap.writes", "heap.reads", "heap.overwrites",
                        "heap.tracked_locations", "predicates.taken",
                        "predicates.not_taken"})
    Gauges += std::string(G) + "=" + std::to_string(R.value(R.find(G))) +
              "\n";
  return {Dump.str(), Gauges};
}

TEST(PinnedBytesTest, GcostDumpAndGaugeBytes) {
  for (const GcostPin &P : GcostPins)
    for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
      auto [Dump, Gauges] = gcostBytes(P.Workload, E);
      EXPECT_EQ(hashHex(fnv1a(Dump)), P.DumpHash)
          << P.Workload << " on " << engineKindName(E) << ": --dump-graph";
      EXPECT_EQ(hashHex(fnv1a(Gauges)), P.GaugeHash)
          << P.Workload << " on " << engineKindName(E) << ": gauges\n"
          << Gauges;
    }
}

struct TracePin {
  const char *Workload; // a DaCapo analogue at scale 48, or composed at 40
  uint64_t Budget;      // instruction budget; 0 for none
  const char *Hash;
};

const TracePin TracePins[] = {
    {"eclipse", 0, "b88372b6e55fbcb8"},
    {"eclipse", 40000, "035fba4d631ee416"},
    {"composed", 0, "4215e946fab861ed"},
    {"composed", 100000, "b74d15f77c1d75cd"},
};

/// The trace.* gauges and the manifest of one recording session over \p M
/// on \p E: a run (or, given \p Replay, a re-execution of that manifest)
/// with the substrate when \p Instrument, else with the recorder alone.
std::string traceBytes(const Module &M, EngineKind E, uint64_t Budget,
                       bool Instrument, const std::string *Replay) {
  StringOutStream Sink;
  SessionConfig Cfg;
  Cfg.Engine = E;
  Cfg.Instrument = Instrument;
  if (Budget)
    Cfg.Run.MaxInstructions = Budget;
  Cfg.RecordSink = &Sink;
  ProfileSession S(Cfg);
  if (Replay)
    EXPECT_TRUE(S.replay(M, *Replay).Ok);
  else
    S.run(M);
  obs::MetricsRegistry R;
  S.recorder()->accountStats(R);
  StringOutStream Gauges;
  R.writeText(Gauges);
  return Gauges.str() + Sink.str();
}

TEST(PinnedBytesTest, TraceCountBytesInEveryRecordingShape) {
  for (const TracePin &P : TracePins) {
    Workload W = std::string(P.Workload) == "composed"
                     ? buildComposedWorkload(40)
                     : buildWorkload(P.Workload, 48);
    for (EngineKind E : {EngineKind::Interp, EngineKind::Threaded}) {
      std::string Capture = traceBytes(*W.M, E, P.Budget, false, nullptr);
      std::string Manifest = Capture.substr(Capture.find("lud.run.v1"));
      const std::pair<const char *, std::string> Shapes[] = {
          {"capture", Capture},
          {"recorded profile", traceBytes(*W.M, E, P.Budget, true, nullptr)},
          {"replay", traceBytes(*W.M, E, P.Budget, true, &Manifest)},
          {"replay into a capture",
           traceBytes(*W.M, E, P.Budget, false, &Manifest)}};
      for (const auto &[Shape, Bytes] : Shapes)
        EXPECT_EQ(hashHex(fnv1a(Bytes)), P.Hash)
            << P.Workload << " budget " << P.Budget << " on "
            << engineKindName(E) << ", " << Shape << ":\n"
            << Bytes;
    }
  }
}

} // namespace
