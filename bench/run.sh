#!/usr/bin/env bash
# run.sh — build the servers and the load driver from the tree this script
# sits in, then hand every argument to the driver.
#
#   bench/run.sh -all                 every workload, every metric (~2.5 min)
#   bench/run.sh -all -trace 1        plus traced segments, replays, call timings
#   bench/run.sh -all -quick          harness smoke, under a minute
#   bench/run.sh -all -repeat 5       median and quartiles per (metric, workload)
#   bench/run.sh -workload shard_cold -seed 3 -seconds 16 -trace 0
#                                     one run; last stdout line is the
#                                     BENCHMARK.json contract's JSON object
#
# Everything the build and the run write stays under .bench_build/ and
# bench/out/ in the checkout: the Go build cache and temp dir are pointed
# there, so nothing outside the tree is touched.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD/.bench_build"
mkdir -p "$root/bin" "$root/tmp"
export GOCACHE="$root/gocache" GOTMPDIR="$root/tmp" GOTOOLCHAIN=local

go build -o "$root/bin/" ./cmd/itask-load ./cmd/itask-serve ./cmd/itask-gateway ./cmd/itask-train
exec "$root/bin/itask-load" -bin "$root/bin" -work "$root" "$@"
