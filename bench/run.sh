#!/usr/bin/env bash
# Entry point BENCHMARK.json names: build the benchmark from the checkout's
# source and run it. Everything the go command writes (build cache, module
# cache, temp files, binaries) stays under .bench_build/ in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd bench && go build -o "$build/bench" .)
exec "$build/bench" "$@"
