#!/usr/bin/env bash
# Builds the benchmark (perfbench/main.go documents it) from this
# checkout's sources and runs it from the checkout root, passing every
# argument through:
#
#   bash perfbench/run.sh --workload paper-figs --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and the compiler's scratch files
# stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
cd "$root"
exec "$out/perfbench" "$@"
