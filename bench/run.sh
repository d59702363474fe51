#!/usr/bin/env bash
# Builds and runs the benchmark from any checkout of the repository: the
# build cache lives under .bench_build/ in the checkout, so nothing is
# written outside it. Arguments go to the benchmark unchanged.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
mkdir -p "$root/.bench_build"
# Everything the go tool writes — build cache, module cache, its own
# telemetry counters — stays under the checkout, and it needs no $HOME.
export GOCACHE="$root/.bench_build/go-cache"
export GOPATH="$root/.bench_build/gopath"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOTOOLCHAIN=local GOFLAGS=
cd "$root"
go build -C "$here" -o "$root/.bench_build/heterobench" .
exec "$root/.bench_build/heterobench" "$@"
