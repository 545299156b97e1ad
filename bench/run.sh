#!/usr/bin/env bash
# Builds the benchmark from the checkout it sits in and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload mix-1m --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. Build outputs, the Go build cache
# and the run's ledger and audit directories all stay under .bench_build/.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
# The go command keeps telemetry counters under the user config dir.
export XDG_CONFIG_HOME="$out/config"
go -C bench build -o "$out/osdp-bench" .
exec "$out/osdp-bench" "$@"
