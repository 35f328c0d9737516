#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs one
# workload, passing every argument through:
#
#   bash perfbench/run.sh --workload serve_hot --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in
# the checkout: the Go build cache, temporary files, the binary and
# the span files of traced runs. Without the repository's sources
# beside it the build fails, and so does the run.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root . -spans "$out/spans" "$@"
