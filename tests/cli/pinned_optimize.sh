#!/bin/sh
# Pinned bytes of `lud-run --optimize --optimize-out=F`: the rewritten
# program the optimizer writes for a few analogues, plain and obfuscated,
# as POSIX cksum values (CRC and byte count). A change to how modules are
# rebuilt must leave these bytes alone; a deliberate change to the
# optimizer's output updates the table and says so.
#
#   sh pinned_optimize.sh <tool-dir>
set -u
BIN=$1
TMP=${TMPDIR:-/tmp}/lud_pinned_optimize.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

FAILED=0
# name | extra lud-run flags | expected "crc bytes"
while IFS='|' read -r NAME FLAGS WANT; do
  [ -z "$NAME" ] && continue
  # shellcheck disable=SC2086
  "$BIN/lud-run" --workload="$NAME" --scale=200 $FLAGS \
    --optimize-out="$TMP/out.lud" > "$TMP/stdout.txt" 2> "$TMP/stderr.txt" || {
    echo "FAIL: lud-run --workload=$NAME $FLAGS exited non-zero"
    cat "$TMP/stderr.txt"
    FAILED=1
    continue
  }
  GOT=$(cksum < "$TMP/out.lud" | awk '{ print $1 " " $2 }')
  if [ "$GOT" != "$WANT" ]; then
    echo "FAIL: $NAME $FLAGS: rewritten program cksum '$GOT', pinned '$WANT'"
    FAILED=1
  fi
done <<EOF
sunflow||4221071095 11912
derby||1272786383 12668
sunflow|--obfuscate=all --obfuscate-seed=1|2812609830 27956
derby|--obfuscate=all --obfuscate-seed=7|1964158766 26094
EOF
[ "$FAILED" = 0 ] || exit 1
echo PINNED_OPTIMIZE_OK
