#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it, passing every
# argument through (see main.go). Run it from the repository root:
#
#   bash perfbench/run.sh -workload ingest -seed 1 -seconds 30 -trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the binary, the durable
# stores of the workloads and the span logs of traced runs.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" XDG_CACHE_HOME="$out/home/.cache" \
	GOPATH="$out/home/go" GOTOOLCHAIN=local
go build -C "$root/perfbench" -o "$out/perfbench" .
exec "$out/perfbench" -work "$out/work" "$@"
