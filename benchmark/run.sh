#!/usr/bin/env bash
# Entry point named in BENCHMARK.json:
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
# Builds the benchmark from source and runs it from the checkout's root.
# The binary, the Go build cache and the WAL of durable_write_sk all live
# under .bench_build/ and the trace under benchmark/out/, so nothing is
# read or written outside the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath" GOTOOLCHAIN=local
go build -C benchmark -o "$build/skbench" .
exec "$build/skbench" "$@"
