#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing every
# argument through. Run from the repository root:
#
#   bash perfbench/run.sh --workload tiny-routed --seed 1 --seconds 20 --trace 0
#
# Build output and the Go build cache live under $CARGO_TARGET_DIR (default
# .bench_build), so nothing is written outside the checkout.
set -euo pipefail

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
