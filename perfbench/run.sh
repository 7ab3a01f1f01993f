#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Every build artefact (binary, Go build cache) stays in
# .bench_build/ under the checkout root. Run from the checkout root:
#
#   bash perfbench/run.sh --workload lookup-zipf --seed 1 --seconds 20 --trace 0
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod
go -C "$root/perfbench" build -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
