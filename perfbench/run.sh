#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#   bash perfbench/run.sh --workload read-hot --seed 1 --seconds 12 --trace 0
# Run from the repository root. Build outputs, the Go build cache and the
# run's store files all stay under $CARGO_TARGET_DIR (default .bench_build).
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -dir "$out" "$@"
