#!/bin/sh
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#	sh bench/run.sh --workload serve-cold --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the go command's own state and the binary live in
# .bench_build/ under the current directory, so a fresh checkout builds
# everything once, later runs reuse it, and nothing is written elsewhere.
set -eu
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off CGO_ENABLED=0
(cd bench && go build -buildvcs=false -o "$out/nde-bench" .)
exec "$out/nde-bench" "$@"
