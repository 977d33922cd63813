#!/bin/bash
# The command BENCHMARK.json names: build the benchmark once into
# .bench_build/ under the checkout and run it. Every cache and temp file
# of the toolchain and of the run stays inside the checkout, so two
# checkouts never share state and nothing is written outside them.
set -eu
root=$PWD
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/bench" ]; then
	echo "bench/run.sh: run from the root of the repository (no go.mod here)" >&2
	exit 2
fi
build=$root/.bench_build
mkdir -p "$build/tmp"
export GOCACHE=$build/gocache GOPATH=$build/gopath GOTMPDIR=$build/tmp TMPDIR=$build/tmp
export GOTOOLCHAIN=local GOPROXY=off
go build -o "$build/bench" ./bench
# The runtime setting every measured process runs under; see quietRuntime
# in main.go.
export GODEBUG=madvdontneed=0
exec "$build/bench" "$@"
