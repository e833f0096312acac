//===- tests/trace/TraceIOTest.cpp - lud.run.v1 manifest format ------------===//
//
// The manifest reader and the replay path behind it never assert on bad
// input: malformed fields, foreign programs, truncations and byte flips
// either replay exactly what was recorded or fail with a line-numbered
// diagnostic.
//
//===----------------------------------------------------------------------===//

#include "profiling/GraphIO.h"
#include "support/OutStream.h"
#include "trace/RunManifest.h"
#include "workloads/DaCapo.h"
#include "workloads/Driver.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <string>

using namespace lud;
using namespace lud::trace;

namespace {

std::string recordManifest(const Module &M) {
  StringOutStream Sink;
  SessionConfig Cfg;
  Cfg.Instrument = false;
  Cfg.RecordSink = &Sink;
  ProfileSession S(std::move(Cfg));
  S.run(M);
  return Sink.str();
}

/// Replays \p Bytes into a fresh substrate-only session. Returns the
/// serialized Gcost on success, "" with \p Err set on failure.
std::string replayGraph(const Module &M, std::string_view Bytes,
                        std::string &Err) {
  ProfileSession S(SessionConfig::profiled());
  ReplayRun R = S.replay(M, Bytes);
  Err = R.Error;
  if (!R.Ok)
    return "";
  StringOutStream OS;
  writeGraph(FrozenGraph(S.slicing()->graph()), OS);
  return OS.str();
}

bool isLineDiagnostic(const std::string &Err) {
  return Err.rfind("line ", 0) == 0 && Err.find(": ") != std::string::npos;
}

TEST(TraceIOTest, ReaderDiagnosesBadPrimitives) {
  RunRecord Good;
  Good.ModuleHash = 0x0123456789abcdefULL;
  Good.MaxInstructions = ~uint64_t(0);
  Good.MaxFrames = 16384;
  Good.Input = {-5, 0, std::numeric_limits<int64_t>::min()};
  Good.Status = RunStatus::BudgetExceeded;
  Good.Instructions = 42;
  Good.SinkHash = 0xfedcba9876543210ULL;
  Good.Events = 7;
  StringOutStream OS;
  writeRecord(Good, OS);
  std::string Line = OS.str();
  ASSERT_EQ(Line.back(), '\n');
  Line.pop_back();

  RunRecord R;
  std::string Err;
  ASSERT_TRUE(parseRecord(Line, R, Err)) << Err;
  EXPECT_EQ(R.ModuleHash, Good.ModuleHash);
  EXPECT_EQ(R.MaxInstructions, Good.MaxInstructions);
  EXPECT_EQ(R.MaxFrames, Good.MaxFrames);
  EXPECT_EQ(R.Input, Good.Input);
  EXPECT_EQ(R.Status, Good.Status);
  EXPECT_EQ(R.Instructions, Good.Instructions);
  EXPECT_EQ(R.SinkHash, Good.SinkHash);
  EXPECT_EQ(R.Events, Good.Events);

  // Each mutation of the good line, and the words its diagnostic names.
  const std::pair<std::pair<const char *, const char *>, const char *>
      Cases[] = {
          {{"module=0123456789abcdef", "module=0123"}, "16 hex digits"},
          {{"module=0123456789abcdef", "module=0123456789abcdeg"},
           "16 hex digits"},
          {{"max_instructions=18446744073709551615",
            "max_instructions=18446744073709551616"},
           "'max_instructions' wants an unsigned integer"},
          {{"max_frames=16384", "max_frames=4294967296"},
           "'max_frames' wants an unsigned integer up to 4294967295"},
          {{"max_frames=16384", "max_frames=-1"}, "'max_frames'"},
          {{"max_frames=16384", "max_frames=+1"}, "'max_frames'"},
          {{"input=-5,0,", "input=-5,x,"}, "'input' wants comma-separated"},
          {{"input=-5,0,-9223372036854775808", "input=-5,0,"},
           "ends with a comma"},
          {{"input=-5,0,-9223372036854775808",
            "input=-5,0,-9223372036854775809"},
           "'input' wants comma-separated"},
          {{"status=budget-exceeded", "status=done"}, "unknown status 'done'"},
          {{"instructions=42", "instructions="}, "'instructions' is empty"},
          {{"instructions=42", "instrs=42"}, "expected field 'instructions='"},
          {{"events=7", "events=7 extra"}, "trailing text 'extra'"},
          {{"events=7", ""}, "expected field 'events='"},
          {{"lud.run.v1", "lud.run.v2"}, "expected 'lud.run.v1'"},
      };
  for (const auto &[Edit, Want] : Cases) {
    std::string Bad = Line;
    size_t At = Bad.find(Edit.first);
    ASSERT_NE(At, std::string::npos) << Edit.first;
    Bad.replace(At, std::strlen(Edit.first), Edit.second);
    EXPECT_FALSE(parseRecord(Bad, R, Err)) << Bad;
    EXPECT_NE(Err.find(Want), std::string::npos)
        << "got '" << Err << "' for " << Bad;
  }

  // A diagnostic quotes at most a short prefix of the offending text.
  EXPECT_FALSE(parseRecord(std::string(100000, 'x'), R, Err));
  EXPECT_LT(Err.size(), 100u) << Err;
}

TEST(TraceIOTest, HeaderMismatchesAreDiagnosed) {
  Workload W = buildWorkload("fop", 16);
  std::string Bytes = recordManifest(*W.M);
  std::string Err;
  // The genuine manifest replays.
  EXPECT_NE(replayGraph(*W.M, Bytes, Err), "") << Err;

  // Empty input.
  EXPECT_EQ(replayGraph(*W.M, "", Err), "");
  EXPECT_EQ(Err.rfind("line 1: empty manifest", 0), 0u) << Err;

  // Wrong magic.
  std::string Bad = Bytes;
  Bad[0] = 'X';
  EXPECT_EQ(replayGraph(*W.M, Bad, Err), "");
  EXPECT_EQ(Err.rfind("line 1: expected 'lud.run.v1'", 0), 0u) << Err;

  // Recorded against a different program: both hashes are named.
  Workload Other = buildWorkload("chart", 32);
  EXPECT_EQ(replayGraph(*Other.M, Bytes, Err), "");
  EXPECT_NE(Err.find("does not match the program's"), std::string::npos)
      << Err;
  char Recorded[17], Program[17];
  std::snprintf(Recorded, sizeof Recorded, "%016llx",
                (unsigned long long)moduleHash(*W.M));
  std::snprintf(Program, sizeof Program, "%016llx",
                (unsigned long long)moduleHash(*Other.M));
  EXPECT_NE(Err.find(Recorded), std::string::npos) << Err;
  EXPECT_NE(Err.find(Program), std::string::npos) << Err;

  // Line numbers count records, across replay() calls of one session.
  ProfileSession S(SessionConfig::profiled());
  ASSERT_TRUE(S.replay(*W.M, Bytes + Bytes).Ok);
  ReplayRun R = S.replay(*W.M, Bad);
  EXPECT_FALSE(R.Ok);
  EXPECT_EQ(R.Error.rfind("line 3: ", 0), 0u) << R.Error;
}

TEST(TraceIOTest, EveryTruncationFailsCleanly) {
  Workload W = buildWorkload("fop", 8);
  std::string Bytes = recordManifest(*W.M);
  std::string Err;
  const std::string Want = replayGraph(*W.M, Bytes, Err);
  ASSERT_NE(Want, "") << Err;
  // One record: a proper prefix either drops only the final newline (and
  // replays identically) or cuts into the record and must fail with a
  // line-numbered diagnostic — never a crash.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    std::string Got =
        replayGraph(*W.M, std::string_view(Bytes).substr(0, Len), Err);
    if (Len + 1 == Bytes.size()) {
      EXPECT_EQ(Got, Want);
      continue;
    }
    EXPECT_EQ(Got, "") << "prefix " << Len;
    EXPECT_TRUE(isLineDiagnostic(Err)) << "prefix " << Len << ": " << Err;
  }
}

TEST(TraceIOTest, BitFlipsNeverCrashTheReplayer) {
  Workload W = buildWorkload("fop", 8);
  std::string Bytes = recordManifest(*W.M);
  std::string Err;
  const std::string Want = replayGraph(*W.M, Bytes, Err);
  ASSERT_NE(Want, "") << Err;
  // Flip bits at every position. A flip may leave the run unchanged (a
  // budget or frame limit the run never reaches, a leading zero) and then
  // must replay identically; otherwise it must fail with a line-numbered
  // diagnostic.
  for (size_t I = 0; I < Bytes.size(); ++I) {
    for (uint8_t Bits : {0x01, 0x10, 0x40}) {
      std::string Mutated = Bytes;
      Mutated[I] = char(uint8_t(Mutated[I]) ^ Bits);
      std::string Got = replayGraph(*W.M, Mutated, Err);
      if (Got.empty())
        EXPECT_TRUE(isLineDiagnostic(Err)) << "flip at " << I << ": " << Err;
      else
        EXPECT_EQ(Got, Want) << "flip at " << I;
    }
  }
}

} // namespace
