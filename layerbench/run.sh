#!/usr/bin/env bash
# Builds the layered benchmark from the checkout it runs in and executes it
# with the given arguments. Run it from the repository root:
#
#   bash layerbench/run.sh --workload ic100k-uniform --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file stays under .bench_build/ in
# the current directory.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=mod GOPROXY=off GOENV=off

# The benchmark module resolves the program through `replace imdist => ../`,
# so a directory that holds only the benchmark fails to build here.
(cd "$here" && go build -o "$build/layerbench" .) >&2
exec "$build/layerbench" "$@"
