#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload paper-movie --seed 1 --seconds 30 --trace 0
#
# Everything the Go toolchain writes (build cache, temporary files,
# telemetry counters, the binary) goes under .bench_build/ at the
# checkout root; nothing is fetched from the network.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go -C "$root/bench" build -o "$out/htc-bench" .
exec "$out/htc-bench" "$@"
