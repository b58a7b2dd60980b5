#!/usr/bin/env bash
# Builds the harness and the two server binaries from this checkout's source,
# then runs the harness with the caller's arguments. Run it from the root of
# the checkout: bash benchmark/run.sh --workload lib_read --seed 1 --seconds 10 --trace 0
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin"

# Everything the build writes stays inside the checkout.
export GOCACHE="$build/gocache" GOTOOLCHAIN=local GOFLAGS=-mod=mod

# go build is a no-op for a binary that is already up to date.
go build -o "$build/bin/" ./cmd/nsgserve ./cmd/nsgrouter >&2
(cd benchmark && go build -o "$build/bin/nsgbench" .) >&2

exec "$build/bin/nsgbench" -workdir "$build" -bin "$build/bin" -dir benchmark "$@"
