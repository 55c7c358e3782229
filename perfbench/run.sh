#!/usr/bin/env bash
# Builds the benchmark and the shrimpd daemon from the checkout's source,
# then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload sweep-quick --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Everything it builds or writes lands
# under .bench_build/ (Go build cache included) and .bench_out/ (span
# files of traced runs), so a run touches nothing outside the checkout.
# Without the repository around it (a directory holding only perfbench/)
# the build fails and the script exits non-zero without a result.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal/harness" ]; then
    echo "perfbench: run from the repository root (no go.mod/internal/harness here)" >&2
    exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"

mkdir -p "$build/tmp"
export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomod"
export GOPATH="$build/gopath"
export GOTMPDIR="$build/tmp"
export GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
export CGO_ENABLED=0

(cd "$root/perfbench" && go build -o "$build/perfbench" . && go build -o "$build/shrimpd" shrimp/cmd/shrimpd) >&2

exec "$build/perfbench" -shrimpd "$build/shrimpd" "$@"
