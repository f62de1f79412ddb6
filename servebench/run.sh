#!/usr/bin/env bash
# Builds the serving-stack benchmark from source and runs it. Run from
# the repository root:
#
#   bash servebench/run.sh --workload churn --seed 1 --seconds 15 --trace 0
#
# Build outputs, the Go build cache and span files stay under
# .bench_build/ in the current directory.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build/servebench"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off
go -C "$root/servebench" build -o "$out/servebench" .
exec "$out/servebench" --out "$out" "$@"
