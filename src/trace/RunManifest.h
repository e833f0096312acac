//===- trace/RunManifest.h - lud.run.v1 run manifests ----------*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The record/replay format. A run depends only on the module, the native
/// bindings and its RunConfig, so a recording does not need the hook
/// stream: one text line per ProfileSession::run() holds the run's inputs
/// (module hash, instruction budget, frame limit, input tape) and its
/// outcome (status, executed instructions, sink hash, hook events). Replay
/// re-executes each record under the replaying session's pipeline and
/// checks the outcome against it (docs/TRACING.md). A record reads
///
///   lud.run.v1 module=<hex16> max_instructions=<u64> max_frames=<u32>
///   input=<i64,...> status=<finished|trapped|budget-exceeded>
///   instructions=<u64> sink=<hex16> events=<u64>
///
/// on a single line, fields in exactly that order, separated by single
/// spaces. The parser never asserts: malformed input yields a diagnostic.
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TRACE_RUNMANIFEST_H
#define LUD_TRACE_RUNMANIFEST_H

#include "runtime/Interpreter.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace lud {

class Module;
class OutStream;

namespace trace {

/// First word of every record.
inline constexpr char kManifestMagic[] = "lud.run.v1";

/// One recorded run: what it read, and what it produced.
struct RunRecord {
  /// moduleHash() of the program the run executed.
  uint64_t ModuleHash = 0;
  uint64_t MaxInstructions = 0;
  uint32_t MaxFrames = 0;
  /// The `input` native's tape.
  std::vector<int64_t> Input;
  RunStatus Status = RunStatus::Finished;
  uint64_t Instructions = 0;
  uint64_t SinkHash = 0;
  /// Profiler hook events, run start and end excluded.
  uint64_t Events = 0;
};

/// 64-bit FNV-1a hash of the printed module (ir/Printer.h). Printing is
/// canonical, so any edit a replay could observe changes the hash.
uint64_t moduleHash(const Module &M);

/// Writes \p R as one newline-terminated line.
void writeRecord(const RunRecord &R, OutStream &OS);

/// Parses one record line (no trailing newline). Returns false with a
/// diagnostic in \p Err on malformed input.
bool parseRecord(std::string_view Line, RunRecord &R, std::string &Err);

/// The first difference between a re-execution's outcome (\p R, with
/// \p Events hook events) and its record \p Rec, as "<field> <got>,
/// recorded <want>"; "" when they agree.
std::string diffRecord(const RunRecord &Rec, const RunResult &R,
                       uint64_t Events);

/// Splits a manifest into its lines, newlines dropped. A final line without
/// a newline still counts; an empty manifest has no lines.
std::vector<std::string_view> splitRecords(std::string_view Manifest);

} // namespace trace
} // namespace lud

#endif // LUD_TRACE_RUNMANIFEST_H
