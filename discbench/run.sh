#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# arguments given, e.g.
#
#   bash discbench/run.sh --workload sim_multi --seed 1 --seconds 20 --trace 0
#
# Run it from the root of the checkout. The build cache, the binary and
# the traced runs' span files go to $CARGO_TARGET_DIR (default
# .bench_build) inside the checkout. See discbench/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=
go -C discbench build -o "$out/discbench" .
exec "$out/discbench" --out "$out" "$@"
