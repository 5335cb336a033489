#!/bin/sh
# Regenerates every artifact in EXPERIMENTS.md into out/ (or into the
# directory given with -o).
# Usage: scripts/regenerate.sh [-o outdir] [trials]
#
# The E2/E3 sweeps run their trials in parallel on all CPUs (the shared
# experiment harness); results depend only on -seed, not on -workers.
# Every artifact is byte-reproducible: scripts/ci.sh regenerates into a
# temp dir and compares each committed out/ file against it.
set -eu
out=out
while getopts o: opt; do
	case $opt in
	o) out=$OPTARG ;;
	*)
		echo "usage: scripts/regenerate.sh [-o outdir] [trials]" >&2
		exit 2
		;;
	esac
done
shift $((OPTIND - 1))
trials="${1:-5}"
mkdir -p "$out"
echo "E1: Table 1 ..."
go run ./cmd/scenariotable > "$out/table1.txt"
go run ./cmd/scenariotable -json > "$out/table1.json"
echo "E2: P2P timing attack sweep ..."
go run ./cmd/p2phunt -trials "$trials" > "$out/p2phunt.txt"
go run ./cmd/p2phunt -trials "$trials" -json > "$out/p2phunt.json"
echo "E3: watermark sweep (slow) ..."
go run ./cmd/tracewatermark -trials "$trials" > "$out/tracewatermark.txt"
go run ./cmd/tracewatermark -trials "$trials" -json > "$out/tracewatermark.json"
echo "E4/E6: casefile flows ..."
go run ./cmd/casefile > "$out/casefile.txt"
echo "advisor ..."
go run ./cmd/advise > "$out/advise.txt"
echo "done: $out/"
