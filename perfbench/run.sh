#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, passing on
# every argument, e.g.
#
#   bash perfbench/run.sh --workload solve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary and the Go build caches stay
# under .bench_build/ in the checkout; the first run compiles everything.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
