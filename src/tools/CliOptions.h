//===- tools/CliOptions.h - Declarative command-line options ---*- C++ -*-===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one option parser behind every lud tool. A tool declares its options
/// once — name, storage, help line — and gets parsing of both `--name V`
/// and `--name=V` spellings, shared diagnostics ("option '--x' requires an
/// argument", "unknown option '--y'"), integer range validation, and a
/// usage() rendered from the same declarations, so the help text can never
/// drift from what parse() accepts.
///
/// Non-dash arguments are collected as positionals in order; each tool
/// validates their count itself (lud-run wants exactly one program,
/// lud-analyze a program and a graph).
///
//===----------------------------------------------------------------------===//

#ifndef LUD_TOOLS_CLIOPTIONS_H
#define LUD_TOOLS_CLIOPTIONS_H

#include "profiling/ClientSet.h"
#include "runtime/Engine.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

namespace lud {

class OutStream;

namespace cli {

/// One version string for every lud tool; --version prints it.
inline constexpr char kVersionString[] = "0.5.0";

/// Whether and how an option consumes a value.
enum class ValueMode : uint8_t {
  /// Plain switch; `--name=V` is rejected.
  None,
  /// Value required: `--name V` or `--name=V`; a missing value is the
  /// "requires an argument" diagnostic, not an unknown option.
  Required,
  /// Value optional and attached only (`--name` or `--name=V`); the next
  /// argv slot is never consumed, so a trailing bare spelling stays legal.
  Optional,
};

class OptionSet {
public:
  /// \p Tool names the binary in usage(); \p Operands is the positional
  /// part of the usage line (e.g. "<program.lud>").
  OptionSet(std::string Tool, std::string Operands)
      : Tool(std::move(Tool)), Operands(std::move(Operands)) {}

  /// Switch: presence sets \p B to true.
  void flag(std::string Name, bool &B, std::string Help);

  /// Integer option stored as a \p T. Values below \p Min or outside
  /// T's range are rejected with a diagnostic naming the option, never
  /// wrapped; Min == 1 produces the "requires a positive value" one.
  template <typename T>
  void number(std::string Name, T &V, std::string Help,
              int64_t Min = std::numeric_limits<int64_t>::min()) {
    using Lim = std::numeric_limits<T>;
    int64_t Lo = std::max<int64_t>(Min, Lim::min());
    int64_t Hi = int64_t(std::min<uint64_t>(
        Lim::max(), std::numeric_limits<int64_t>::max()));
    addNumber(std::move(Name), std::move(Help), Lo, Hi,
              [&V](int64_t X) { V = T(X); });
  }

  /// String option, stored verbatim (required value).
  void str(std::string Name, std::string &V, std::string Help);

  /// Option with a caller-supplied handler; \p Fn receives the value ("",
  /// for ValueMode::None and bare Optional) and returns false — after
  /// printing its own diagnostic — to abort the parse.
  void custom(std::string Name, ValueMode Mode, std::string Help,
              std::function<bool(const std::string &)> Fn);

  /// Parses \p argv. Returns false after printing a diagnostic to errs();
  /// the caller then prints usage() and exits. `--help` and `--version` are
  /// built in: both print to stdout, set exitRequested(), and return true —
  /// the caller exits 0 without running.
  bool parse(int argc, char **argv);

  /// True after parse() handled a built-in informational option (--help,
  /// --version); the tool should exit 0 immediately.
  bool exitRequested() const { return ExitNow; }

  /// Non-dash arguments, in command-line order.
  const std::vector<std::string> &positionals() const { return Positional; }

  /// "usage: <tool> [options] <operands>" plus one aligned line per option,
  /// in declaration order, written to errs().
  void usage() const;
  /// Same, to an arbitrary stream (--help routes this to stdout).
  void usage(OutStream &OS) const;

private:
  struct Option {
    std::string Name;
    std::string Help;
    ValueMode Mode;
    std::function<bool(const std::string &)> Fn;
  };

  void addNumber(std::string Name, std::string Help, int64_t Min,
                 int64_t Max, std::function<void(int64_t)> Store);
  const Option *findOption(const std::string &Name) const;

  std::string Tool;
  std::string Operands;
  std::vector<Option> Options;
  std::vector<std::string> Positional;
  bool ExitNow = false;
};

/// Declares the shared `--engine` option on \p P: parses the value with
/// parseEngineKind into \p E and rejects anything else with a diagnostic
/// listing the valid engine names. Every executing tool (and lud-replay,
/// where the knob is accepted-but-inert) declares it through this helper so
/// the spelling, validation and diagnostic never drift between tools.
void engineOption(OptionSet &P, EngineKind &E);

/// Declares the shared `--clients` option on \p P: parses the value with
/// parseClientSet (grammar: "all", "none", or a comma list of copy,
/// nullness, typestate). The first occurrence replaces the tool's default
/// in \p Set; later ones add to it. Every tool that selects client
/// analyses — lud-run, lud-replay, lud-fuzz, lud-serve — declares it
/// through this helper.
void clientsOption(OptionSet &P, ClientSet &Set);

/// Writes a file through \p Body; false after a "cannot write" diagnostic
/// when \p Path cannot be opened.
bool writeFile(const std::string &Path,
               const std::function<void(OutStream &)> &Body);

} // namespace cli
} // namespace lud

#endif // LUD_TOOLS_CLIOPTIONS_H
