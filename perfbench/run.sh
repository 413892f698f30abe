#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload.
#
#   bash perfbench/run.sh --workload plan-serve --seed 1 --seconds 30 --trace 0
#
# Run it from the repository root. Everything the Go toolchain writes (build
# cache, temporary files, the binary) stays under .bench_build/ in the
# checkout. The last line on stdout is the JSON result; build output goes to
# stderr.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

export HOME="$out/home"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOPATH="$out/home/go"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export GOFLAGS=-mod=mod

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
