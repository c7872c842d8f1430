#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root; arguments go to the benchmark, e.g.
#   bash genbench/run.sh --workload fleet-mixed --seed 3 --seconds 20 --trace 0
#   bash genbench/run.sh --selftest
# Everything the build and the run leave behind stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/genbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd genbench && go build -o "$out/genbench" .)
exec "$out/genbench" "$@"
