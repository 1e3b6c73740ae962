#!/usr/bin/env bash
# Builds the simulator benchmark from source and runs it, passing every
# argument through. The Go build cache, the binary and the benchmark's
# trace and profile outputs all stay under .bench_build/ at the
# repository root.
#
#   bash bench/run.sh --workload sharegpt-steady --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/out"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
    TMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C "$root/bench" build -o "$build/bench" .
exec "$build/bench" -out "$build/out" "$@"
