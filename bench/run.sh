#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument
# through. Run it from the repository root, for example:
#
#   bash bench/run.sh --workload paper-long --seed 42 --seconds 20 --trace 0
#
# The build writes only under .bench_build/ in the current directory:
# the binary, the Go build cache, its temporary files, and the Go tool's
# own state. No module is downloaded; bench/go.mod points at the
# repository itself.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
go -C bench build -o "$out/busnet-bench" .
exec "$out/busnet-bench" "$@"
