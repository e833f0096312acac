//===- tools/CliOptions.cpp - Declarative command-line options -------------===//

#include "tools/CliOptions.h"

#include "support/OutStream.h"

#include <charconv>
#include <cstdio>
#include <system_error>

using namespace lud;
using namespace lud::cli;

void OptionSet::flag(std::string Name, bool &B, std::string Help) {
  Options.push_back({std::move(Name), std::move(Help), ValueMode::None,
                     [&B](const std::string &) {
                       B = true;
                       return true;
                     }});
}

void OptionSet::str(std::string Name, std::string &V, std::string Help) {
  Options.push_back({std::move(Name), std::move(Help), ValueMode::Required,
                     [&V](const std::string &S) {
                       V = S;
                       return true;
                     }});
}

void OptionSet::custom(std::string Name, ValueMode Mode, std::string Help,
                       std::function<bool(const std::string &)> Fn) {
  Options.push_back({std::move(Name), std::move(Help), Mode, std::move(Fn)});
}

void OptionSet::addNumber(std::string Name, std::string Help, int64_t Min,
                          std::function<void(int64_t)> Store) {
  std::string N = Name;
  Options.push_back(
      {std::move(Name), std::move(Help), ValueMode::Required,
       [N, Min, Store = std::move(Store)](const std::string &S) {
         // Full-consumption parse: "12abc", "abc", and "" are errors, not
         // silent prefixes, and out-of-range values are diagnosed rather
         // than saturated.
         int64_t V = 0;
         auto [Ptr, Ec] = std::from_chars(S.data(), S.data() + S.size(), V);
         if (Ec == std::errc::result_out_of_range) {
           errs() << "option '" << N << "' value '" << S
                  << "' is out of range\n";
           return false;
         }
         if (Ec != std::errc() || Ptr != S.data() + S.size()) {
           errs() << "option '" << N << "' wants an integer, got '" << S
                  << "'\n";
           return false;
         }
         if (V < Min) {
           if (Min == 1)
             errs() << "option '" << N << "' requires a positive value\n";
           else
             errs() << "option '" << N << "' requires a value >= " << Min
                    << "\n";
           return false;
         }
         Store(V);
         return true;
       }});
}

const OptionSet::Option *OptionSet::findOption(const std::string &Name) const {
  for (const Option &O : Options)
    if (O.Name == Name)
      return &O;
  return nullptr;
}

bool OptionSet::parse(int argc, char **argv) {
  for (int I = 1; I < argc; ++I) {
    std::string A = argv[I];
    if (A.size() < 2 || A[0] != '-') {
      Positional.push_back(std::move(A));
      continue;
    }
    // Built-in informational options, shared by every tool. Exact-match
    // only: `--help=x` falls through to the unknown-option diagnostic.
    if (A == "--help") {
      usage(outs());
      ExitNow = true;
      return true;
    }
    if (A == "--version") {
      outs() << Tool << " (lud) " << kVersionString << "\n";
      ExitNow = true;
      return true;
    }
    size_t Eq = A.find('=');
    bool HasEq = Eq != std::string::npos;
    std::string Name = HasEq ? A.substr(0, Eq) : A;
    const Option *O = findOption(Name);
    if (!O) {
      errs() << "unknown option '" << Name << "'\n";
      return false;
    }
    std::string Value;
    switch (O->Mode) {
    case ValueMode::None:
      if (HasEq) {
        errs() << "option '" << Name << "' does not take a value\n";
        return false;
      }
      break;
    case ValueMode::Required:
      if (HasEq) {
        Value = A.substr(Eq + 1);
      } else if (I + 1 < argc) {
        Value = argv[++I];
      } else {
        errs() << "option '" << Name << "' requires an argument\n";
        return false;
      }
      break;
    case ValueMode::Optional:
      if (HasEq)
        Value = A.substr(Eq + 1);
      break;
    }
    if (!O->Fn(Value))
      return false;
  }
  return true;
}

void cli::clientsOption(OptionSet &P, ClientSet &Set) {
  P.custom("--clients", ValueMode::Required,
           "LIST  client analyses to run, in executions of their own "
           "beside the substrate's (copy+typestate and nullness on two "
           "threads while two cores are spare, all on one thread while "
           "one is, else after the substrate), comma-separated: copy, "
           "nullness, typestate, all, or none",
           [&Set, Seen = false](const std::string &List) mutable {
             ClientSet Parsed;
             std::string Err;
             if (!parseClientSet(List, Parsed, Err)) {
               errs() << Err << "\n";
               return false;
             }
             Set = Seen ? Set | Parsed : Parsed;
             Seen = true;
             return true;
           });
}

bool cli::writeFile(const std::string &Path,
                    const std::function<void(OutStream &)> &Body) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F) {
    errs() << "cannot write '" << Path << "'\n";
    return false;
  }
  FileOutStream FOS(F);
  Body(FOS);
  std::fclose(F);
  return true;
}

void cli::engineOption(OptionSet &P, EngineKind &E) {
  P.custom("--engine", ValueMode::Required,
           "E  execution backend: interp (reference) or threaded (fast; "
           "default from LUD_ENGINE)",
           [&E](const std::string &V) {
             if (parseEngineKind(V, E))
               return true;
             errs() << "unknown engine '" << V
                    << "' (valid: " << validEngineNames() << ")\n";
             return false;
           });
}

void OptionSet::usage() const { usage(errs()); }

void OptionSet::usage(OutStream &OS) const {
  OS << "usage: " << Tool << " [options] " << Operands << "\n";
  size_t Width = sizeof("--version") - 1;
  for (const Option &O : Options)
    Width = O.Name.size() > Width ? O.Name.size() : Width;
  auto Line = [&](const std::string &Name, std::string_view Help) {
    OS << "  " << Name;
    for (size_t P = Name.size(); P != Width + 2; ++P)
      OS << " ";
    OS << Help << "\n";
  };
  for (const Option &O : Options)
    Line(O.Name, O.Help);
  Line("--help", "print this help and exit");
  Line("--version", "print the version and exit");
}
