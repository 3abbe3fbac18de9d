#!/usr/bin/env bash
# The benchmark's one command (see BENCHMARK.json): build apex-load from
# source and run it with the driver's arguments. Everything the build and
# the run write — Go's build cache and temporary files included — stays
# under .bench_build in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local
cd "$root"
go build -C bench -o "$build/bin/apex-load" ./apex-load
exec "$build/bin/apex-load" "$@"
