#!/usr/bin/env bash
# Builds the benchmark and the chirond server from this checkout's sources
# into .bench_build/ (build cache included) and runs the benchmark from the
# checkout root with the given arguments:
#
#   bash perfbench/run.sh --workload train-surrogate --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build"
mkdir -p "$out"
# Keep the go command's caches, module path and telemetry counters (kept
# under the user config directory) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" . && go build -o "$out/chirond" chiron/cmd/chirond) >&2
exec "$out/perfbench" "$@"
