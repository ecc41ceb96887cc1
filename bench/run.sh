#!/usr/bin/env bash
# The command BENCHMARK.json names: build the benchmark from source inside
# the checkout (Go's build cache included, so nothing is written outside
# it) and run it with the driver's arguments.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
