#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in and runs it with
# the given arguments, from the root of that tree:
#
#   bash perfbench/run.sh --workload dense-floor --seed 1 --seconds 30 --trace 0
#
# The Go build cache and module path live in .bench_build/ beside the
# binary, so the benchmark writes nothing outside the tree.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
go -C perfbench build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
