#!/usr/bin/env bash
# Builds dtdinfer, dtdserved and the perfbench command from the checkout's
# sources into .bench_build, then runs perfbench with the given flags:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything it writes, the Go build
# cache included, stays under .bench_build.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOPROXY=off
mkdir -p "$out/bin"
go build -o "$out/bin/" ./cmd/dtdinfer ./cmd/dtdserved
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
