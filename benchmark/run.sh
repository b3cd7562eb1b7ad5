#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source inside
# the checkout (binary, Go build cache and temporary files all under
# .bench_build/) and runs it with the arguments given. Run from the repo root:
#
#   bash benchmark/run.sh --workload read-hot --seed 7 --seconds 10 --trace 0
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d internal ] || [ ! -d benchmark ]; then
	echo "benchmark/run.sh: run from the root of a full checkout (go.mod, internal/, benchmark/)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export GOFLAGS= GOTOOLCHAIN=local GOWORK=off

go build -o "$build/hybridkv-benchmark" ./benchmark
exec "$build/hybridkv-benchmark" "$@"
