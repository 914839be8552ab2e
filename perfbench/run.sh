#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given
# arguments, from the repository root:
#
#   bash perfbench/run.sh --workload verify-hot --seed 1 --seconds 10 --trace 0
#
# Every Go cache and the binary stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly GOTELEMETRY=off
go -C perfbench build -o "$build/perfbench-bin" .
exec "$build/perfbench-bin" "$@"
