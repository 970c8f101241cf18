#!/usr/bin/env bash
# Driver entry point: builds the benchmark from source inside the checkout
# and runs it with the driver's arguments. Everything the build writes
# (binary, Go build cache, temp files, the go command's own counters under
# its config directory) stays under .bench_build/.
set -euo pipefail
root="$(pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/home"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOPATH="$build/home/go"
export GOTOOLCHAIN=local GOPROXY=off
go build -C "$root/benchmark" -o "$build/cgbenchmark" .
exec "$build/cgbenchmark" "$@"
