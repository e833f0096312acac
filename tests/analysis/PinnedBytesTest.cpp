//===- tests/analysis/PinnedBytesTest.cpp - Pinned obfuscation bytes -------===//
//
// Fixed hashes of the obfuscator's output. Two runs of one build agreeing
// with each other (ObfuscateTest.DeterministicForAFixedSeed) says nothing
// about whether a refactor of the module-building code changed the bytes;
// these pins do. The printed module (trace::moduleHash) and the manifest
// text (one "<kind>\t<description>" line per site, as
// --obfuscate-manifest writes it) are hashed with 64-bit FNV-1a.
//
// The lud-run --optimize-out pins live in tests/cli/pinned_optimize.sh.
//
// A deliberate change to the obfuscated bytes must update the table below
// and say so; an accidental one fails here.
//
//===----------------------------------------------------------------------===//

#include "ir/Module.h"
#include "ir/Obfuscate.h"
#include "trace/RunManifest.h"
#include "workloads/DaCapo.h"

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

    EXPECT_EQ(trace::hashHex(trace::moduleHash(*Res.M)), P.ModuleHash)
        << P.Workload << " seed " << P.Seed << ": printed module";
    EXPECT_EQ(trace::hashHex(fnv1a(Manifest)), P.ManifestHash)
        << P.Workload << " seed " << P.Seed << ": manifest";
  }
}

} // namespace
