#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
#
#   bash bench/run.sh                      every workload, one fresh process each
#   bash bench/run.sh -workload NAME [-seed N] [-seconds N] [-trace 1]
#   bash bench/run.sh -selfcheck [-sets N] | -update
#
# Run from the repository root. The Go build cache, the compiler's
# temporary files and the binary all live under .bench_build in the
# checkout, so nothing is read or written outside it.
set -euo pipefail
root=$(pwd)
[ -f "$root/BENCHMARK.json" ] && [ -d "$root/bench" ] || {
	echo "bench/run.sh: run from the repository root (BENCHMARK.json and bench/ not found in $root)" >&2
	exit 2
}
[ -f "$root/go.mod" ] || {
	echo "bench/run.sh: $root holds no go.mod: the program under test (module redreq) is not here, nothing to measure" >&2
	exit 3
}
build="$root/.bench_build"
mkdir -p "$build/tmp"
# GOPATH, GOENV and XDG_CONFIG_HOME keep the go tool's module cache, its
# env file and its telemetry counters out of the home directory too.
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go -C "$root/bench" build -o "$build/redreq-bench" .
exec "$build/redreq-bench" "$@"
