#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload kernel --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. The Go build cache, the binary and the
# run's scratch files stay under .bench_build/ in the working directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
