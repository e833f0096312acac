#!/bin/sh
# lud-run on programs the parser once reinterpreted or aborted on: each is
# a line-numbered diagnostic on stderr and exit code 1.
#
#   sh parse_errors.sh <tool-dir>
set -u
BIN=$1
TMP=${TMPDIR:-/tmp}/lud_parse_errors.$$
mkdir -p "$TMP"
trap 'rm -rf "$TMP"' EXIT
FAILED=0

# check <name> <body of main's bb0> <expected diagnostic> [regs]
check() {
  printf 'func main() regs %s {\nbb0:\n  %b\n}\n' "${4:-1}" "$2" \
    > "$TMP/$1.lud"
  timeout 60 "$BIN/lud-run" "$TMP/$1.lud" > /dev/null 2> "$TMP/$1.err"
  RC=$?
  if [ "$RC" -ne 1 ]; then
    echo "FAIL: $1 exited $RC, expected 1"
    FAILED=1
  fi
  if ! grep -qxF -- "$TMP/$1.lud: $3" "$TMP/$1.err"; then
    echo "FAIL: $1 printed:"
    cat "$TMP/$1.err"
    FAILED=1
  fi
}

check goto_word 'goto bbfoo' \
  "line 3: malformed block label 'bbfoo' (expected bbN)"
check goto_huge 'goto bb4000000000' \
  "line 3: block label 'bb4000000000' out of range (at most bb65534)"
check regs_huge 'ret' \
  "line 1: register count '4000000000' out of range (at most 65535)" \
  4000000000
check regs_negative 'ret' \
  "line 1: register count '-1' out of range (at most 65535)" -1
check iconst_huge 'r0 = iconst 99999999999999999999\n  ret r0' \
  "line 3: integer literal '99999999999999999999' out of range"
check goto_undefined 'goto bb5' "line 3: jump to undefined label 'bb5'"

[ "$FAILED" = 0 ] || exit 1
echo PARSE_ERRORS_OK
