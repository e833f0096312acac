//===- tests/cli/graph_edit.cpp - Byte edits of Gcost dumps for cli tests --===//
//
// Part of the lud project: a reproduction of "Finding Low-Utility Data
// Structures" (PLDI 2010).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Test helper for the lud-analyze cli tests. A Gcost dump ends in
/// 'end <hash>', the FNV-1a hash of every byte before that line.
///
///   graph_edit reseal <in> <out>   writes <in> with its trailer rehashed
///                                  over the bytes before it
///   graph_edit flip <in> <dir>     writes one mutant per (offset, mask)
///                                  to <dir>/m<n>_<mask>.graph: every 31st
///                                  of the first 40 offsets before the
///                                  trailer and every 7th of the trailer,
///                                  XOR 0x15 and 0x01
///
//===----------------------------------------------------------------------===//

#include "support/OutStream.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace lud;

namespace {

bool writeFile(const std::string &Path, const std::string &Bytes) {
  std::FILE *F = std::fopen(Path.c_str(), "wb");
  if (!F)
    return false;
  bool OK = std::fwrite(Bytes.data(), 1, Bytes.size(), F) == Bytes.size();
  return std::fclose(F) == 0 && OK;
}

/// Offset of the dump's last line, ignoring trailing newlines.
size_t trailerAt(const std::string &Dump) {
  size_t End = Dump.find_last_not_of('\n');
  if (End == std::string::npos)
    return 0;
  size_t NL = Dump.rfind('\n', End);
  return NL == std::string::npos ? 0 : NL + 1;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 4) {
    errs() << "usage: graph_edit reseal|flip <in> <out>\n";
    return 2;
  }
  std::string Cmd = Argv[1], Out = Argv[3], Dump;
  if (!readFileBytes(Argv[2], Dump)) {
    errs() << Argv[2] << ": cannot read\n";
    return 1;
  }
  size_t Last = trailerAt(Dump);

  if (Cmd == "reseal") {
    HashOutStream H;
    H << std::string_view(Dump).substr(0, Last);
    return writeFile(Out, Dump.substr(0, Last) + "end " + hashHex(H.hash()) +
                              "\n")
               ? 0
               : 1;
  }
  if (Cmd != "flip") {
    errs() << "graph_edit: unknown command '" << Cmd << "'\n";
    return 2;
  }
  std::vector<size_t> Offsets;
  for (size_t K = 0; K != 40 && 31 * K < Last; ++K)
    Offsets.push_back(31 * K);
  for (size_t At = Last; At < Dump.size(); At += 7)
    Offsets.push_back(At);
  for (size_t N = 0; N != Offsets.size(); ++N)
    for (unsigned Mask : {0x15u, 0x01u}) {
      std::string M = Dump;
      M[Offsets[N]] = char(M[Offsets[N]] ^ Mask);
      if (!writeFile(Out + "/m" + std::to_string(N) + "_" +
                         std::to_string(Mask) + ".graph",
                     M))
        return 1;
    }
  return 0;
}
