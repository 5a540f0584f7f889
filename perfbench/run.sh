#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#	bash perfbench/run.sh --workload chain-mpt --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, the stores the workloads write and the trace
# files all live under .bench_build/ in the current directory, so a run
# reads and writes nothing outside the checkout it was started in.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod
(cd "$root/perfbench" && go build -o "$out/perfbench.bin" .) >&2
exec "$out/perfbench.bin" -workdir "$out/perfbench" "$@"
