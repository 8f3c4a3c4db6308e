#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it; all build
# state (binary, Go build cache) stays under .bench_build in the checkout.
# Usage, from the repository root:
#   bash perfbench/run.sh --workload sweep-grid --seed 1 --seconds 20 --trace 0
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOENV=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
