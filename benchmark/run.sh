#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark driver and
# the sharond binary it spawns from the sources of this checkout, then
# hands the arguments to the driver. Everything the build writes (Go
# build cache included) stays under .bench_build/ in the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/gocache" "$build/gomodcache" "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

t0=$(date +%s%N)
# One go invocation builds both binaries: sharond is a package of the
# module this one requires (replaced by the checkout's root).
(cd "$here" && go build -o "$build/bin/" . github.com/sharon-project/sharon/cmd/sharond)
t1=$(date +%s%N)

exec "$build/bin/benchmark" -root "$root" -build-ns "$((t1 - t0))" "$@"
