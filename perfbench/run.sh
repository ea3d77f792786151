#!/usr/bin/env bash
# Builds rdbsc-server and the perfbench program from the checkout this script
# sits in, then runs perfbench with the given arguments:
#
#   bash perfbench/run.sh --workload churn-ingest --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write (Go build cache, binaries, the
# generated populations, WAL directories) goes under .bench_build/ at the
# root of the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=-buildvcs=false

(cd "$root" && go build -o "$out/rdbsc-server" ./cmd/rdbsc-server) >&2
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -server "$out/rdbsc-server" -work "$out" "$@"
