#!/usr/bin/env bash
# Builds cmd/lawgated and the perfbench program from this checkout into
# .bench_build/, then runs perfbench with the given arguments. Run from
# the repository root:
#
#   bash perfbench/run.sh --workload rulings-closed --seed 1 --seconds 30 --trace 0
#
# The Go build cache and temporary files also live under .bench_build/,
# so a run writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -o "$out/lawgated" ./cmd/lawgated
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -lawgated .bench_build/lawgated -workdir .bench_build "$@"
