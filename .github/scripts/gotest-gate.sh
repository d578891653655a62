#!/usr/bin/env bash
# Runs named Go tests, or fuzzes one named target, and fails unless each
# name reports "--- PASS". `go test` exits 0 when a -run or -fuzz pattern
# matches nothing ("no tests to run", "no fuzz tests to fuzz"), so without
# this check a renamed or deleted test would switch its CI gate off.
#
# Usage:
#   gotest-gate.sh PACKAGE NAME...                  run the named tests once
#   gotest-gate.sh -fuzztime DURATION PACKAGE NAME  fuzz one target; it must
#                                                   also have started fuzzing
set -euo pipefail

fuzztime=""
if [ "${1:-}" = "-fuzztime" ]; then
	fuzztime=$2
	shift 2
fi
if [ $# -lt 2 ] || { [ -n "$fuzztime" ] && [ $# -ne 2 ]; }; then
	echo "usage: $0 [-fuzztime DURATION] PACKAGE NAME..." >&2
	exit 2
fi
pkg=$1
shift
pattern="^($(IFS='|'; echo "$*"))\$"
out=$(mktemp)
trap 'rm -f "$out"' EXIT

if [ -n "$fuzztime" ]; then
	go test -run "$pattern" -fuzz "$pattern" -fuzztime "$fuzztime" -v "$pkg" 2>&1 | tee "$out"
	if ! grep -q 'now fuzzing' "$out"; then
		echo "gate: $1 did not fuzz" >&2
		exit 1
	fi
else
	go test -run "$pattern" -count=1 -v "$pkg" 2>&1 | tee "$out"
fi
for name in "$@"; do
	if ! grep -q "^--- PASS: $name " "$out"; then
		echo "gate: $name did not report --- PASS in $pkg" >&2
		exit 1
	fi
done
