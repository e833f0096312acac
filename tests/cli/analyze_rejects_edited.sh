#!/bin/sh
# lud-analyze must refuse a dump that is not a profile of the program it is
# given, before any analysis indexes the module with the dump's ids. Three
# one-record edits of a genuine dump: a node whose heap-read flag its
# instruction does not have, and an allocation tag and a written
# location's tag that name no allocation site of the program. Each must
# exit 1 with a diagnostic that starts with the graph path.
#
#   sh analyze_rejects_edited.sh <tool-dir> <program.lud>
set -u
BIN=$1
PROG=$2
TMP=${TMPDIR:-/tmp}/lud_analyze_rejects.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

"$BIN/lud-run" --dump-graph "$TMP/g.graph" "$PROG" > /dev/null ||
  { echo "FAIL: lud-run exited non-zero"; exit 1; }

# Field 10 of a node record is its reads-heap flag.
awk '$1 == "node" && !done && $10 == 0 { $10 = 1; done = 1 } { print }' \
  "$TMP/g.graph" > "$TMP/flags.graph"
# The first allocnode and writer records' tags move to a site far past the
# program's.
for R in allocnode writer; do
  awk -v R=$R '$1 == R && !done { $2 = "4000000000"; done = 1 } { print }' \
    "$TMP/g.graph" > "$TMP/$R.graph"
done

FAILED=0
expect_rejected() { # <graph> <diagnostic pattern>
  if cmp -s "$TMP/g.graph" "$1"; then
    echo "FAIL: $1 is unedited"
    FAILED=1
    return
  fi
  "$BIN/lud-analyze" "$PROG" "$1" > /dev/null 2> "$TMP/err.txt"
  RC=$?
  if [ "$RC" != 1 ] || ! grep -qE "^$1: not a profile of .*: $2" "$TMP/err.txt"
  then
    echo "FAIL: $1: exit $RC"
    cat "$TMP/err.txt"
    FAILED=1
  fi
}
expect_rejected "$TMP/flags.graph" 'node [0-9]+ .* flags'
expect_rejected "$TMP/allocnode.graph" 'node [0-9]+ .* allocates tag'
expect_rejected "$TMP/writer.graph" 'node [0-9]+ .* accesses tag'
[ "$FAILED" = 0 ] || exit 1
echo EDITED_GRAPH_REJECTED
