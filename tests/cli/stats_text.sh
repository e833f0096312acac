#!/bin/sh
# --stats=text is the documented default spelling: in lud-run and
# lud-replay it prints the same text table as bare --stats (metric names
# compared; timing values differ run to run). An unknown format is rejected
# with exit 2 and a diagnostic listing the valid ones.
#
#   sh stats_text.sh <tool-dir> <program.lud>
set -u
BIN=$1
PROG=$2
TMP=${TMPDIR:-/tmp}/lud_stats_text.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $*"
  exit 1
}

names() { awk '/^  [a-z]/ { print $1 }' "$1"; }

"$BIN/lud-run" --record="$TMP/p.trace" "$PROG" > /dev/null ||
  fail "recording failed"
for SPELLING in --stats --stats=text; do
  "$BIN/lud-run" $SPELLING "$PROG" > "$TMP/run$SPELLING.txt" ||
    fail "lud-run $SPELLING"
  "$BIN/lud-replay" $SPELLING "$PROG" "$TMP/p.trace" \
    > "$TMP/rep$SPELLING.txt" || fail "lud-replay $SPELLING"
done
for T in run rep; do
  names "$TMP/$T--stats.txt" > "$TMP/a.txt"
  names "$TMP/$T--stats=text.txt" > "$TMP/b.txt"
  grep -q '^run\.\|^gcost\.' "$TMP/b.txt" || fail "$T: no text table"
  cmp "$TMP/a.txt" "$TMP/b.txt" || fail "$T: --stats=text differs"
done

for TOOL in lud-run lud-replay; do
  "$BIN/$TOOL" --stats=yaml "$PROG" "$TMP/p.trace" > "$TMP/out.txt" 2>&1
  RC=$?
  [ "$RC" -eq 2 ] || fail "$TOOL --stats=yaml exited $RC"
  grep -q "unknown stats format 'yaml' (valid: text, json, csv)" \
    "$TMP/out.txt" || fail "$TOOL --stats=yaml diagnostic"
done
echo STATS_TEXT_OK
