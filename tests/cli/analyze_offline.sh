#!/bin/sh
# The offline hand-off end to end: `lud-run --report --caches --dump-graph`
# profiles a program, `lud-analyze` re-reads the dump through GraphIO and
# seals it again, and the two must print the same low-utility and cache
# sections byte for byte. The bloat section is left out: offline its
# denominator is the instances the graph covers, not the run's total.
#
#   sh analyze_offline.sh <tool-dir> <program.lud>
set -u
BIN=$1
PROG=$2
TMP=${TMPDIR:-/tmp}/lud_analyze_offline.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

sections() {
  awk '/^=== /{ keep = /^=== (low-utility data structures|cache effectiveness)/ }
       keep && NF' "$1"
}

"$BIN/lud-run" --report --caches --dump-graph "$TMP/prog.graph" "$PROG" \
  > "$TMP/live.out" || { echo "FAIL: lud-run exited non-zero"; exit 1; }
"$BIN/lud-analyze" "$PROG" "$TMP/prog.graph" > "$TMP/offline.out" ||
  { echo "FAIL: lud-analyze exited non-zero"; exit 1; }
sections "$TMP/live.out" > "$TMP/live.sections"
sections "$TMP/offline.out" > "$TMP/offline.sections"
grep -q '^=== low-utility data structures ===' "$TMP/live.sections" &&
  grep -q '^=== cache effectiveness' "$TMP/live.sections" ||
  { echo "FAIL: lud-run printed no report or cache section"; exit 1; }
cmp "$TMP/live.sections" "$TMP/offline.sections" || {
  diff "$TMP/live.sections" "$TMP/offline.sections" | head -20
  echo "FAIL: offline sections differ from the live run's"
  exit 1
}
echo ANALYZE_OFFLINE_OK
