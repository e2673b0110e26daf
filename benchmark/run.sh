#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the arguments given, e.g.
#
#   bash benchmark/run.sh --workload read-tracked --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write stays inside the checkout: the Go
# build cache, the binary and the data directories under .bench_build/, the
# trace files under benchmark/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOFLAGS=-modcacherw
export GOPROXY=off GOTOOLCHAIN=local GOWORK=off
go -C benchmark build -o "$build/dppr-benchmark" .
exec "$build/dppr-benchmark" -tmp "$build/tmp" -out benchmark/out "$@"
