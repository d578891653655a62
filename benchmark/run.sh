#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash benchmark/run.sh --workload stmt-sync --seed 1 --seconds 22 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ in the checkout.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -f benchmark/go.mod ]; then
	echo "benchmark/run.sh: run from the root of a full checkout of the repository" >&2
	exit 2
fi
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-modcacherw
(cd benchmark && go build -o "$build/ojvbench" .)
exec "$build/ojvbench" "$@"
