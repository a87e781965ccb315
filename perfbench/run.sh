#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's sources and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload replay-eng --seed 1 --seconds 25 --trace 0
#
# Everything it writes (Go build cache and config, binary, temporary
# stores, traces) stays under .bench_build in the checkout. The build
# fails, and the script exits nonzero without running anything, when the
# repository's sources are not beside perfbench/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$root/.bench_build/gocache" GOPATH="$root/.bench_build/gopath" \
	XDG_CONFIG_HOME="$root/.bench_build/config" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -trimpath -o "$out/perfbench" .
exec "$out/perfbench" "$@"
