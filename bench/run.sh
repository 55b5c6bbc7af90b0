#!/usr/bin/env bash
# The command in BENCHMARK.json: build ./bench from source, then run it
# with the arguments given. Same as `go run ./bench "$@"`, except that
# the Go build cache, the temporary files of the toolchain and the
# binary all stay inside the checkout (.bench_build/), so that a run
# reads and writes nothing outside it.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/prudentia-bench" ./bench
exec "$build/prudentia-bench" "$@"
