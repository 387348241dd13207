#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the harness from the
# checkout's own source and run it with the driver's arguments. Everything
# the build writes (Go build cache, module cache, the binary) stays under
# .bench_build/ in the checkout, and the harness keeps its WAL scratch
# under benchmark/out/. In a directory without the repository's go.mod the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $root is not the repository (no go.mod or internal/): nothing to measure" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local GOENV=off GOPROXY=off CGO_ENABLED=0
go build -buildvcs=false -o "$build/benchmark" ./benchmark >&2
exec "$build/benchmark" "$@"
