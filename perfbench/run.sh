#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# root of the repository:
#
#   bash perfbench/run.sh --workload replay-stream --seed 1 --seconds 30 --trace 0
#
# The binary, the Go build cache, generated inputs and span files all go
# under .bench_build/perfbench, so nothing is written outside the checkout.
# A checkout without the repository's packages fails to build, and the
# script then exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOMODCACHE="$out/modcache" GOTOOLCHAIN=local GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" --workdir "$out" "$@"
