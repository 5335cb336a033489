#!/bin/sh
# Tracked benchmark baselines for the hot paths.
# Usage: scripts/bench.sh [-count N] [-short] [-o FILE] [netsim|legal|ledger|server|wire]
#
# The default `netsim` target runs the internal/netsim micro-benchmarks
# (scheduler step, send paths — including a send across a capped trunk
# of a 1,000-node composite — neighbor lookup, heap churn), the
# internal/anonet middle-relay forward hop (BenchmarkRelayForward), the
# BenchmarkSweepRunner macro-bench, and the BenchmarkShardedRun
# parallel-engine macro-bench (a 100k-node composite topology run at 1
# and 8 partitions, reporting events/sec and nodes/sec), and writes to
# BENCH_netsim.json with the machine's core count recorded — CI arms
# the 3x partition-speedup gate only when the recorded run had enough
# cores to make the claim meaningful.
# The `legal` target runs the BenchmarkRulingsPerSec engine-throughput
# family (cold/warm/batch/batch-dup) plus the delta-path families
# (BenchmarkEvaluateDelta, BenchmarkBatchDeltaChain) and writes to
# BENCH_legal.json. The `ledger` target runs the audit-ledger family
# (append, batched append and its looped-append pair baseline,
# checkpointed batches, proof generation, proof verification, full
# chain verification) and writes to BENCH_ledger.json. The `wire`
# target runs the zero-alloc wire-codec encode/decode benchmarks next
# to their encoding/json equivalents, plus the batch-shaped ones (a
# 256-action batch decode and its encoding/json baseline, the same
# batch with every object's keys in reverse order, and the 20 Table 1
# rulings' encode), and writes to
# BENCH_wire.json — CI pins the hot-path encodes and the single-action
# decode to 0 allocs/op and both batch decodes to the fresh slices and
# sub-objects their actions carry. The `server`
# target runs the lawgated chaos bench (internal/server/loadgen driving
# a live in-process server over TCP through bursts, malformed JSON,
# oversized bodies, slow-loris connections, poisoned evaluations, and
# mid-run doctrine hot swaps), asserts every request ended in a
# deliberate status with no goroutine leak, and writes the observed
# latency percentiles and rulings/sec to BENCH_server.json; lawgated
# emits the report JSON itself, with a direct Engine.Evaluate baseline
# measured in the same run.
#
# Each benchmark runs -count times and the per-benchmark MEDIANS of
# ns/op, B/op, allocs/op — plus events/sec and nodes/sec where a
# benchmark reports them — are written to FILE as JSON. When the
# target's baseline file (scripts/bench_baseline.json,
# scripts/bench_baseline_legal.json, or
# scripts/bench_baseline_ledger.json) exists its contents are embedded
# under "baseline" so the checked-in artifact carries its own
# before/after comparison. -short runs one fast iteration of everything
# — the CI smoke that proves the script and its output format still
# work.
set -eu
cd "$(dirname "$0")/.."

count=5
out=
short=0
target=netsim
while [ $# -gt 0 ]; do
	case "$1" in
	-count)
		count=$2
		shift 2
		;;
	-short)
		short=1
		shift
		;;
	-o)
		out=$2
		shift 2
		;;
	netsim | legal | ledger | server | wire)
		target=$1
		shift
		;;
	*)
		echo "usage: scripts/bench.sh [-count N] [-short] [-o FILE] [netsim|legal|ledger|server|wire]" >&2
		exit 2
		;;
	esac
done

benchtime=1s
shardnodes=100000
if [ "$short" = 1 ]; then
	count=1
	benchtime=100x
	shardnodes=2000
fi
cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)

# The server target is self-contained: lawgated runs the chaos schedule
# and writes the report JSON (with its in-run baseline) itself.
if [ "$target" = server ]; then
	[ -n "$out" ] || out=BENCH_server.json
	duration=2s
	[ "$short" = 1 ] && duration=400ms
	echo "== lawgated chaos bench (duration=$duration)" >&2
	go run ./cmd/lawgated -bench -bench-duration "$duration" -o "$out"
	echo "wrote $out" >&2
	exit 0
fi

tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

case "$target" in
netsim)
	[ -n "$out" ] || out=BENCH_netsim.json
	baseline=scripts/bench_baseline.json
	echo "== netsim micro-benchmarks (count=$count, benchtime=$benchtime)" >&2
	go test -run '^$' \
		-bench '^(BenchmarkSimulatorStep|BenchmarkSimulatorStepDeep|BenchmarkSend|BenchmarkSendWide|BenchmarkSendTapped|BenchmarkSendFaulty|BenchmarkNeighbors|BenchmarkHeapChurn|BenchmarkFlowEmit)$' \
		-benchmem -benchtime "$benchtime" -count "$count" ./internal/netsim |
		tee -a "$tmp" >&2

	echo "== onion relay hop (count=$count, benchtime=$benchtime)" >&2
	go test -run '^$' -bench '^BenchmarkRelayForward$' \
		-benchmem -benchtime "$benchtime" -count "$count" ./internal/anonet |
		tee -a "$tmp" >&2

	echo "== sweep macro-benchmark (count=$count, benchtime=1x)" >&2
	go test -run '^$' -bench '^BenchmarkSweepRunner$' \
		-benchmem -benchtime 1x -count "$count" . |
		tee -a "$tmp" >&2

	echo "== sharded-engine macro-benchmark (count=$count, benchtime=1x, nodes=$shardnodes)" >&2
	go test -run '^$' -bench '^BenchmarkShardedRun$' \
		-benchmem -benchtime 1x -count "$count" ./internal/netsim \
		-args -shard-bench-nodes "$shardnodes" |
		tee -a "$tmp" >&2
	;;
legal)
	[ -n "$out" ] || out=BENCH_legal.json
	baseline=scripts/bench_baseline_legal.json
	echo "== legal engine throughput (count=$count, benchtime=$benchtime)" >&2
	go test -run '^$' -bench '^(BenchmarkRulingsPerSec|BenchmarkEvaluateDelta|BenchmarkBatchDeltaChain)$' \
		-benchmem -benchtime "$benchtime" -count "$count" ./internal/legal |
		tee -a "$tmp" >&2
	;;
ledger)
	[ -n "$out" ] || out=BENCH_ledger.json
	baseline=scripts/bench_baseline_ledger.json
	echo "== audit-ledger benchmarks (count=$count, benchtime=$benchtime)" >&2
	go test -run '^$' \
		-bench '^(BenchmarkLedgerAppend|BenchmarkLedgerAppendBatch|BenchmarkLedgerAppendLooped|BenchmarkLedgerAppendBatchCheckpointed|BenchmarkLedgerProof|BenchmarkLedgerVerifyProof|BenchmarkLedgerVerify)$' \
		-benchmem -benchtime "$benchtime" -count "$count" ./internal/ledger |
		tee -a "$tmp" >&2
	;;
wire)
	[ -n "$out" ] || out=BENCH_wire.json
	baseline=
	echo "== wire-codec benchmarks (count=$count, benchtime=$benchtime)" >&2
	go test -run '^$' \
		-bench '^(BenchmarkWireEncode|BenchmarkWireEncodeStdlib|BenchmarkWireEncodeTable1|BenchmarkWireDecode|BenchmarkWireDecodeStdlib|BenchmarkWireDecodeBatch|BenchmarkWireDecodeBatchStdlib|BenchmarkWireDecodeBatchReordered)$' \
		-benchmem -benchtime "$benchtime" -count "$count" ./internal/wire |
		tee -a "$tmp" >&2
	;;
esac

# aggregate: median of each metric per benchmark name (GOMAXPROCS
# suffix stripped so results compare across machines).
aggregate() {
	awk '
/^Benchmark/ && /ns\/op/ {
	name = $1
	sub(/-[0-9]+$/, "", name)
	for (i = 2; i <= NF; i++) {
		if ($i == "ns/op") ns[name, ++nns[name]] = $(i - 1)
		else if ($i == "B/op") by[name, ++nby[name]] = $(i - 1)
		else if ($i == "allocs/op") al[name, ++nal[name]] = $(i - 1)
		else if ($i == "events/sec") ev[name, ++nev[name]] = $(i - 1)
		else if ($i == "nodes/sec") nd[name, ++nnd[name]] = $(i - 1)
	}
	if (!(name in seen)) { seen[name] = 1; order[++n] = name }
}
function median(arr, cnt, name,    i, j, t, v, m) {
	m = cnt[name]
	for (i = 1; i <= m; i++) v[i] = arr[name, i] + 0
	for (i = 2; i <= m; i++) {
		t = v[i]
		for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]
		v[j + 1] = t
	}
	if (m % 2) return v[(m + 1) / 2]
	return (v[m / 2] + v[m / 2 + 1]) / 2
}
END {
	printf "  \"benchmarks\": [\n"
	for (i = 1; i <= n; i++) {
		name = order[i]
		line = sprintf("    {\"name\": \"%s\", \"ns_per_op\": %.10g, \"bytes_per_op\": %.10g, \"allocs_per_op\": %.10g", \
			name, median(ns, nns, name), median(by, nby, name), median(al, nal, name))
		if (nev[name]) line = line sprintf(", \"events_per_sec\": %.10g", median(ev, nev, name))
		if (nnd[name]) line = line sprintf(", \"nodes_per_sec\": %.10g", median(nd, nnd, name))
		printf "%s}%s\n", line, (i < n ? "," : "")
	}
	printf "  ]"
}' "$1"
}

{
	printf '{\n'
	printf '  "schema": "lawgate-bench/v1",\n'
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "cores": %s,\n' "$cores"
	printf '  "count": %s,\n' "$count"
	aggregate "$tmp"
	if [ -f "$baseline" ]; then
		printf ',\n  "baseline": '
		cat "$baseline"
	fi
	printf '\n}\n'
} >"$out"

echo "wrote $out" >&2
