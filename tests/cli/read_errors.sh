#!/bin/sh
# Tools given a path that opens but cannot be read (a directory) exit 1
# with "cannot read '<path>': <reason>" instead of reading it as empty.
#
#   sh read_errors.sh <tool-dir> <program.lud>
set -u
BIN=$1
PROG=$2
TMP=${TMPDIR:-/tmp}/lud_read_errors.$$
mkdir -p "$TMP/dir"
trap 'rm -rf "$TMP"' EXIT
FAILED=0

# check <name> <tool> <args...>: the tool must exit 1 naming the directory.
check() {
  NAME=$1
  shift
  "$@" > /dev/null 2> "$TMP/$NAME.err"
  RC=$?
  if [ "$RC" -ne 1 ]; then
    echo "FAIL: $NAME exited $RC, expected 1"
    FAILED=1
  fi
  if ! grep -qF -- "cannot read '$TMP/dir': " "$TMP/$NAME.err"; then
    echo "FAIL: $NAME printed:"
    cat "$TMP/$NAME.err"
    FAILED=1
  fi
}

check run "$BIN/lud-run" --report "$TMP/dir"
check analyze "$BIN/lud-analyze" "$PROG" "$TMP/dir"
check replay "$BIN/lud-replay" "$PROG" "$TMP/dir"

[ "$FAILED" -eq 0 ] && echo READ_ERRORS_OK
