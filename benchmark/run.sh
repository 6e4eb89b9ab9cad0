#!/usr/bin/env bash
# The benchmark's command: build the harness from source inside the checkout
# (build cache included, so nothing is read or written outside it) and run it
# with the arguments given. The build is cached after the first run.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build
export GOCACHE="$PWD/.bench_build/gocache" GOTOOLCHAIN=local
go build -o .bench_build/benchmark ./benchmark
exec .bench_build/benchmark "$@"
