#!/bin/sh
# lud-replay --workload replays a run of a generated workload without a
# program file: the same bytes as replaying against the program lud-run
# prints, and a module-hash diagnostic when the workload differs.
#
#   sh replay_workload.sh <tool-dir>
set -u
BIN=$1
TMP=${TMPDIR:-/tmp}/lud_replay_workload.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
FAILED=0
W="--workload=composed --scale=40"

"$BIN/lud-run" $W --record="$TMP/c.run" > /dev/null || exit 1
"$BIN/lud-run" $W --print-ir > "$TMP/c.lud" || exit 1

# Same workload: byte-identical to replaying the written program (but for
# the line naming the dump file).
"$BIN/lud-replay" --report --dump-graph "$TMP/w.graph" $W "$TMP/c.run" \
  > "$TMP/w.txt" || { echo "FAIL: --workload replay exited $?"; FAILED=1; }
"$BIN/lud-replay" --report --dump-graph "$TMP/f.graph" "$TMP/c.lud" \
  "$TMP/c.run" > "$TMP/f.txt" || { echo "FAIL: file replay exited $?"; FAILED=1; }
for R in w f; do
  grep -v "^Gcost written to " "$TMP/$R.txt" > "$TMP/$R.out"
done
for F in out graph; do
  if ! cmp -s "$TMP/w.$F" "$TMP/f.$F"; then
    echo "FAIL: --workload and program-file replays differ in $F"
    diff "$TMP/w.$F" "$TMP/f.$F" | head -5
    FAILED=1
  fi
done
grep -q "^replayed " "$TMP/w.out" || { echo "FAIL: no replay summary"; FAILED=1; }

# Another scale is another program: exit 1 naming both module hashes.
"$BIN/lud-replay" --workload=composed --scale=60 "$TMP/c.run" \
  > /dev/null 2> "$TMP/scale.err"
RC=$?
if [ "$RC" -ne 1 ]; then
  echo "FAIL: wrong --scale exited $RC, expected 1"
  FAILED=1
fi
if ! grep -qE "^$TMP/c.run: line 1: module hash [0-9a-f]{16} does not match the program's [0-9a-f]{16}" "$TMP/scale.err"; then
  echo "FAIL: wrong --scale printed:"
  cat "$TMP/scale.err"
  FAILED=1
fi

[ "$FAILED" -eq 0 ] && echo REPLAY_WORKLOAD_OK
