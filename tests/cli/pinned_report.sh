#!/bin/sh
# Pinned bytes of `lud-run --all --clients=all`: every report section the
# tool prints, from the first `===` header on (the status and Gcost lines
# above it carry the build graph's footprint), for a few analogues, plain
# and obfuscated, and the composed tier, as POSIX cksum values (CRC and
# byte count). Each input runs on both engines against the same pin. A
# change to how the analyses or the clients are configured must leave
# these bytes alone; a deliberate change to a report updates the table
# and says so.
#
#   sh pinned_report.sh <tool-dir>
set -u
BIN=$1
TMP=${TMPDIR:-/tmp}/lud_pinned_report.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT

FAILED=0
# workload | scale | extra lud-run flags | expected "crc bytes"
while IFS='|' read -r NAME SCALE FLAGS WANT; do
  [ -z "$NAME" ] && continue
  for ENGINE in interp threaded; do
    # shellcheck disable=SC2086
    "$BIN/lud-run" --workload="$NAME" --scale="$SCALE" $FLAGS \
      --engine=$ENGINE --all --clients=all \
      > "$TMP/stdout.txt" 2> "$TMP/stderr.txt" || {
      echo "FAIL: lud-run --workload=$NAME $FLAGS --engine=$ENGINE exited non-zero"
      cat "$TMP/stderr.txt"
      FAILED=1
      continue
    }
    GOT=$(sed -n '/^===/,$p' "$TMP/stdout.txt" | cksum | awk '{ print $1 " " $2 }')
    if [ "$GOT" != "$WANT" ]; then
      echo "FAIL: $NAME@$SCALE $FLAGS --engine=$ENGINE: report cksum '$GOT', pinned '$WANT'"
      FAILED=1
    fi
  done
done <<EOF
chart|48||2983504855 3990
derby|48||678356963 5869
sunflow|48||1426210769 4959
eclipse|48||988538353 6122
chart|48|--obfuscate=all --obfuscate-seed=1|3642457842 5445
derby|48|--obfuscate=all --obfuscate-seed=1|2428658392 6519
sunflow|48|--obfuscate=all --obfuscate-seed=1|848787610 6456
eclipse|48|--obfuscate=all --obfuscate-seed=1|1003289039 6640
composed|40||294701079 8386
EOF
[ "$FAILED" = 0 ] || exit 1
echo PINNED_REPORT_OK
