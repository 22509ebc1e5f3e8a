#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload manyflows --seed 1 --seconds 10 --trace 0
#
# Run from the root of a checkout. Every build artefact (binary, Go
# build cache, temporaries) stays under .bench_build in that checkout.
# Without the repository's sources next to perfbench/ the build fails
# and the script exits non-zero before printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/gomod"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOFLAGS=

# Build to a private name and rename, so concurrent runs never execute a
# half-written binary.
bin="$out/perfbench"
go build -C "$root/perfbench" -trimpath -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
