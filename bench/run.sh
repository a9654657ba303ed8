#!/usr/bin/env bash
# Builds the benchmark ladder from source and runs it from the checkout
# root. Everything the Go toolchain writes (build cache, temp files, the
# binary) stays under .bench_build/ inside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/ladder" .
cd "$root"
exec "$build/ladder" "$@"
