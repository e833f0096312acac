#!/bin/sh
# Pinned command-line text of `lud-run --optimize`: its --help entry, the
# diagnostic and exit code for an unknown pass name, and that a pass list
# runs in the order it is given.
#
#   sh optimize_cli.sh <tool-dir> <program.lud>
set -u
BIN=$1
PROG=$2
TMP=${TMPDIR:-/tmp}/lud_optimize_cli.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
FAILED=0

HELP="  --optimize            [=LIST]  run the rewrite-pass pipeline (dead-stores, \
map-to-array, clone-per-op, once-read-memo, dead-stores-final) and print its \
report; LIST restricts to those passes, in order"
"$BIN/lud-run" --help > "$TMP/help.txt"
if ! grep -qxF -- "$HELP" "$TMP/help.txt"; then
  echo "FAIL: lud-run --help lists --optimize as:"
  grep -- '--optimize' "$TMP/help.txt"
  FAILED=1
fi

DIAG="unknown pass 'loop-unroll' (expected dead-stores, map-to-array, \
clone-per-op, once-read-memo, or dead-stores-final)"
"$BIN/lud-run" --optimize=loop-unroll "$PROG" > /dev/null 2> "$TMP/err.txt"
RC=$?
if [ "$RC" -ne 2 ]; then
  echo "FAIL: --optimize=loop-unroll exited $RC, expected 2"
  FAILED=1
fi
if ! grep -qxF -- "$DIAG" "$TMP/err.txt"; then
  echo "FAIL: --optimize=loop-unroll printed:"
  cat "$TMP/err.txt"
  FAILED=1
fi

"$BIN/lud-run" --optimize=map-to-array,dead-stores "$PROG" > "$TMP/out.txt"
RC=$?
GOT=$(grep '^pass ' "$TMP/out.txt" | cut -d: -f1 | tr '\n' '|')
if [ "$RC" -ne 0 ] || [ "$GOT" != "pass map-to-array|pass dead-stores|" ]; then
  echo "FAIL: --optimize=map-to-array,dead-stores exited $RC with pass lines '$GOT'"
  FAILED=1
fi

[ "$FAILED" = 0 ] || exit 1
echo OPTIMIZE_CLI_OK
