#!/bin/sh
# The benchmark's one command (BENCHMARK.json "command"): build the program
# from source inside the checkout, then run it with the driver's arguments
#
#   sh benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Everything it writes — Go's build cache, the
# binary, the spill tier, trace files — stays under .bench_build/ in the
# checkout. The first run pays the compile (standard library included);
# later runs reuse the cache.
set -eu
root=$(pwd)
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local
go build -o "$root/.bench_build/alayadb-benchmark" ./benchmark
exec "$root/.bench_build/alayadb-benchmark" -out "$root/.bench_build" "$@"
