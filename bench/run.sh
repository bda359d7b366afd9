#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash bench/run.sh --workload hot-repeat --seed 3 --seconds 12 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry, the binary) and everything the benchmark writes (the
# threshold-store log) stays under .bench_build in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-mod=mod

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C "$root/bench" build -buildvcs=false -o "$out/hetbench" .
exec "$out/hetbench" -workdir "$out" -commit "$commit" "$@"
