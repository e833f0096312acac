#!/bin/sh
# A Gcost dump ends in 'end <checksum>', the FNV-1a hash of every byte
# before it, so lud-analyze refuses a dump with any single altered byte
# instead of analyzing another profile. Flips bytes across a genuine dump
# (every 31st of the first 40 positions and of the last line, XOR 0x15 and
# 0x01, the second of which turns one digit into another) and expects
# each mutant to exit 1 with a line-numbered diagnostic that starts with
# the graph path. graph_edit (tests/cli/graph_edit.cpp) writes the
# mutants.
#
#   sh analyze_rejects_mutants.sh <tool-dir> <program.lud> <graph_edit>
set -u
BIN=$1
PROG=$2
EDIT=$3
TMP=${TMPDIR:-/tmp}/lud_analyze_mutants.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

"$BIN/lud-run" --dump-graph "$TMP/g.graph" "$PROG" > /dev/null ||
  { echo "FAIL: lud-run exited non-zero"; exit 1; }
"$BIN/lud-analyze" "$PROG" "$TMP/g.graph" > /dev/null ||
  { echo "FAIL: the genuine dump was refused"; exit 1; }

"$EDIT" flip "$TMP/g.graph" "$TMP" || { echo "FAIL: mutate"; exit 1; }

FAILED=0
COUNT=0
for G in "$TMP"/m*.graph; do
  COUNT=$((COUNT + 1))
  "$BIN/lud-analyze" "$PROG" "$G" > /dev/null 2> "$TMP/err.txt"
  RC=$?
  if [ "$RC" != 1 ] || ! grep -qE "^$G: graph line [0-9]+: " "$TMP/err.txt"
  then
    echo "FAIL: $G: exit $RC"
    cat "$TMP/err.txt"
    FAILED=1
  fi
done
[ "$COUNT" -gt 40 ] || { echo "FAIL: only $COUNT mutants"; exit 1; }
[ "$FAILED" = 0 ] || exit 1
echo "MUTANTS_REJECTED $COUNT"
