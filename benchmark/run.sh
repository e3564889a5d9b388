#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: build the ladder binary from
# source inside the checkout (compiler cache and binary both live under
# .bench_build, so nothing is written outside it), then exec it with the
# driver's arguments. Fails without printing a result when the repo's
# own packages are not beside this directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$out/ladder" .
cd "$root"
exec "$out/ladder" "$@"
