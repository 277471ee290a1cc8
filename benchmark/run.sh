#!/usr/bin/env bash
# Builds the benchmark from source and runs it, for BENCHMARK.json's command:
#
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#
# Everything the go tool writes (build cache, temporaries, the binary) and
# everything the benchmark writes (out/) stays inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$here" && go build -o "$build/benchmark" .)
exec "$build/benchmark" -out "$here/out" "$@"
