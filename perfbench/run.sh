#!/usr/bin/env bash
# Builds the repository benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload tenant-web --seed 1 --seconds 20 --trace 0
#
# Build products (binary, Go build cache) go to .bench_build at the
# checkout root, or to $CARGO_TARGET_DIR when it is set. Run from the root
# of the checkout; result and span files land in .bench_build/perfbench.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
cd "$root"
exec "$build/perfbench" -out "$build/perfbench-out" "$@"
