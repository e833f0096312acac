//===- examples/find_low_utility.cpp - The eclipse Figure 6 scenario -------===//
//
// Reproduces the paper's real-world example (Figure 6): eclipse's
// ClasspathDirectory.isPackage() calls directoryList(), which builds a
// whole List of file entries — and then isPackage only null-checks the
// result. The entries' fields are never read, so the aggregated n-RAC /
// n-RAB imbalance exposes the List.
//
// This example also demonstrates the textual .lud frontend: the program is
// written as text and parsed, the way an external user would drive the
// library (see also tools/lud-run).
//
//===----------------------------------------------------------------------===//

#include "analysis/Report.h"
#include "ir/Parser.h"
#include "support/OutStream.h"
#include "workloads/Driver.h"

using namespace lud;

static const char *Program = R"(
# Figure 6, transliterated. A File entry carries (expensively computed)
# metadata; directoryList builds the full list; isPackage null-checks it.

class File {
  sz: int;
  flags: int;
}
class List {
  arr: File[];
  cnt: int;
}

# directoryList(seed) -> List or null
func directoryList(r0) regs 16 {
bb0:
  r1 = new List
  r2 = iconst 8
  r3 = newarray File, r2
  r1.List::arr = r3
  r4 = iconst 0
  r5 = iconst 1
  goto bb1
bb1:
  if r4 < r2 goto bb2 else bb3
bb2:
  r6 = new File
  r7 = iconst 13
  r8 = mul r4, r7
  r9 = add r8, r0
  r10 = mul r9, r9
  r6.File::sz = r10
  r11 = and r9, r2
  r6.File::flags = r11
  r3[r4] = r6
  r4 = add r4, r5
  goto bb1
bb3:
  r1.List::cnt = r2
  # "if nothing is found, set ret to null"
  r12 = iconst 3
  r13 = rem r0, r12
  r14 = iconst 0
  if r13 == r14 goto bb4 else bb5
bb4:
  ret r1
bb5:
  r15 = null
  ret r15
}

# isPackage(seed) -> 0/1: the bug — the list is built either way, only to
# be compared against null.
func isPackage(r0) regs 4 {
bb0:
  r1 = call directoryList(r0)
  r2 = null
  if r1 != r2 goto bb1 else bb2
bb1:
  r3 = iconst 1
  ret r3
bb2:
  r3 = iconst 0
  ret r3
}

func main() regs 8 {
bb0:
  r0 = iconst 0
  r1 = iconst 300
  r2 = iconst 1
  r3 = iconst 0
  goto bb1
bb1:
  if r0 < r1 goto bb2 else bb3
bb2:
  r4 = call isPackage(r0)
  r3 = add r3, r4
  r0 = add r0, r2
  goto bb1
bb3:
  ncall sink(r3)
  ret r3
}
)";

int main() {
  OutStream &OS = outs();
  std::vector<std::string> Errors;
  std::unique_ptr<Module> M = parseModule(Program, Errors);
  if (!M) {
    for (const std::string &E : Errors)
      errs() << "parse error: " << E << "\n";
    return 1;
  }

  // One profiled pass through the session lifecycle: the session
  // prepares the slicing substrate, runs the module, and hands the
  // finished Gcost to the cost model below.
  ProfileSession Session(SessionConfig::profiled());
  RunResult Run = Session.run(*M).Run;
  OS << "isPackage() answered " << Run.ReturnValue.asInt() << " of 300 "
     << "queries positively, executing " << Run.ExecutedInstrs
     << " instructions.\n\n";

  const FrozenGraph G(Session.slicing()->graph());
  CostModel CM(G);
  LowUtilityReport Report(CM, *M);
  OS << "=== Low-utility data structures ===\n";
  Report.print(OS, 5);
  OS << "\nThe File entries (and the List holding them) have large\n"
        "construction costs and zero field benefit: exactly the paper's\n"
        "eclipse finding. The fix specializes directoryList into a\n"
        "boolean-returning check.\n";
  return 0;
}
