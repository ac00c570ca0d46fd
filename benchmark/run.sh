#!/usr/bin/env bash
# BENCHMARK.json's command: build the driver from source inside the
# checkout, then run it with the arguments given. Everything the go
# tool writes (build cache, temp files, the binary) and everything the
# driver writes (private input directories, span files) stays under
# .bench_build, which .gitignore names.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local

go build -o "$build/edgebench" ./benchmark
exec "$build/edgebench" "$@"
