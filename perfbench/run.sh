#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, e.g.
#   bash perfbench/run.sh --workload cpu-mixed --seed 1 --seconds 20 --trace 0
# Run from the repository root. The Go build cache, the binary and the
# benchmark's scratch files all stay under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/perfbench" -o "$out/perfbench-bin" . >&2
exec "$out/perfbench-bin" "$@"
