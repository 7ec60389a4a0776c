#!/usr/bin/env bash
# Builds the benchmark from the source in this checkout and runs it.
# Run from the checkout root; arguments go to the benchmark, e.g.
#
#   bash perfbench/run.sh --workload fuzz-oracle --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build: the
# Go build cache, the binary, the hub stores and the per-run results.
# Like the shipped binaries, the benchmark is built with the module's
# default.pgo profile when the checkout has one.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off
pgo=off
if [ -f "$root/default.pgo" ]; then
	pgo="$root/default.pgo"
fi
(cd "$root/perfbench" && go build -pgo="$pgo" -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
