#!/usr/bin/env bash
# Builds p4guard-bench from the checkout it sits in and runs it with the
# arguments given. Everything the build writes (binary, Go build cache)
# stays under .bench_build/ in the checkout root.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/gocache"

export GOCACHE="$out/gocache"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go build -C "$here" -buildvcs=false -o "$out/p4guard-bench" .
cd "$root"
exec "$out/p4guard-bench" "$@"
