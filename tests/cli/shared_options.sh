#!/bin/sh
# Table-driven check of the options the lud tools share: for every shared
# option and every tool that declares it, a bad value must produce the same
# first diagnostic line and exit code 2, and the option must appear in the
# tool's --help. A numeric value outside the type the tool stores it in is
# a bad value too: it must be refused, not wrapped. Every bad value here is
# refused before anything runs.
#
#   sh shared_options.sh <tool-dir>
set -u
BIN=$1
ERR=${TMPDIR:-/tmp}/lud_shared_options.$$
trap 'rm -f "$ERR"' EXIT
FAILED=0

# Columns: option | bad argument | expected diagnostic | declaring tools.
while IFS='|' read -r OPT ARG DIAG TOOLS; do
  for TOOL in $TOOLS; do
    # The timeout guards against a bad value being accepted by lud-serve,
    # which would then start serving.
    timeout 20 "$BIN/$TOOL" "$ARG" > /dev/null 2> "$ERR"
    RC=$?
    GOT=$(head -n 1 "$ERR")
    if [ "$RC" -ne 2 ]; then
      echo "FAIL: $TOOL $ARG exited $RC, expected 2"
      FAILED=1
    fi
    if [ "$GOT" != "$DIAG" ]; then
      echo "FAIL: $TOOL $ARG printed '$GOT', expected '$DIAG'"
      FAILED=1
    fi
    if ! "$BIN/$TOOL" --help | grep -q -- "^  $OPT "; then
      echo "FAIL: $TOOL --help does not list $OPT"
      FAILED=1
    fi
  done
done <<'EOF'
--report|--report=1|option '--report' does not take a value|lud-run lud-replay lud-serve
--dead|--dead=1|option '--dead' does not take a value|lud-run lud-replay lud-serve
--overwrites|--overwrites=1|option '--overwrites' does not take a value|lud-run lud-replay lud-serve
--predicates|--predicates=1|option '--predicates' does not take a value|lud-run lud-replay lud-serve
--methods|--methods=1|option '--methods' does not take a value|lud-run lud-replay lud-serve
--caches|--caches=1|option '--caches' does not take a value|lud-run lud-replay lud-serve
--all|--all=1|option '--all' does not take a value|lud-run lud-replay lud-serve
--clients|--clients=bogus|unknown client 'bogus' (valid: copy, nullness, typestate, all, none)|lud-run lud-replay lud-serve lud-fuzz
--slots|--slots=0|option '--slots' requires a positive value|lud-run lud-replay lud-serve lud-fuzz
--engine|--engine=bogus|unknown engine 'bogus' (valid: interp, threaded)|lud-run lud-replay lud-fuzz
--depth|--depth=x|option '--depth' wants an integer, got 'x'|lud-run lud-replay lud-serve lud-analyze
--top|--top=2x|option '--top' wants an integer, got '2x'|lud-run lud-replay lud-serve lud-analyze
--slots|--slots=4294967296|option '--slots' value '4294967296' is out of range (at most 4294967295)|lud-run lud-replay lud-serve lud-fuzz
--slots|--slots=4294967297|option '--slots' value '4294967297' is out of range (at most 4294967295)|lud-run lud-replay lud-serve lud-fuzz
--depth|--depth=0|option '--depth' requires a positive value|lud-run lud-replay lud-serve lud-analyze
--depth|--depth=4294967296|option '--depth' value '4294967296' is out of range (at most 4294967295)|lud-run lud-replay lud-serve lud-analyze
--top|--top=-1|option '--top' requires a value >= 0|lud-run lud-replay lud-serve lud-analyze
--shards|--shards=4294967296|option '--shards' value '4294967296' is out of range (at most 4294967295)|lud-run
--shards|--shards=0|option '--shards' requires a positive value|lud-run
--threads|--threads=4294967296|option '--threads' value '4294967296' is out of range (at most 4294967295)|lud-run lud-replay
--http-port|--http-port=65536|option '--http-port' value '65536' is out of range (at most 65535)|lud-serve
--http-port|--http-port=-1|option '--http-port' requires a value >= 0|lud-serve
--workers|--workers=4294967296|option '--workers' value '4294967296' is out of range (at most 4294967295)|lud-serve
--dump-graph|--dump-graph|option '--dump-graph' requires an argument|lud-run lud-replay
--stats|--stats=yaml|unknown stats format 'yaml' (valid: text, json, csv)|lud-run lud-replay
--stats-out|--stats-out|option '--stats-out' requires an argument|lud-run lud-replay
--workload|--workload=nope|unknown workload 'nope' (expected a DaCapo analogue or 'composed')|lud-run lud-serve
--scale|--scale=0|option '--scale' requires a positive value|lud-run lud-serve
--obfuscate|--obfuscate=bogus|unknown obfuscation pass 'bogus' (expected junk, opaque, strings, or all)|lud-run lud-gen
--obfuscate-seed|--obfuscate-seed=-1|option '--obfuscate-seed' requires a value >= 0|lud-run lud-gen
--obfuscate-manifest|--obfuscate-manifest|option '--obfuscate-manifest' requires an argument|lud-run lud-gen
EOF

[ "$FAILED" -eq 0 ] && echo SHARED_OPTIONS_OK
