#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash _gtvbench/run.sh --workload fed-wire --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes (the Go
# build cache, the binary, gtvcol stores, checkpoints, CPU profiles) stays
# under .bench_build/gtvbench in the current directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/gtvbench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" PPROF_TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/_gtvbench" && go build -o "$out/gtvbench" .)
exec "$out/gtvbench" -state "$out" "$@"
