#!/bin/sh
# Tier-1 gate: everything a change must pass before it lands.
# Usage: scripts/ci.sh
#
# Runs, in order: gofmt, vet, build, the full test suite, the race
# detector over the whole module, the full test suite again in the
# netsimscribble build (every recycled simulator packet is poisoned
# instead of reused, so a holder of a released packet breaks a golden
# or a check), vet and tests of the perfbench module
# (its own Go module, which the root ./... never compiles, so a rename
# in the packages it imports would otherwise break only the benchmark),
# and a short-mode smoke run of both experiment commands on the
# parallel sweep path (-smoke -workers 2).
# The simulator is one conservative-lookahead engine; the serial E2/E3
# series run it at one partition, the scale series at several. Its
# partitioned runs get their own gates: both experiment commands run
# their -partitions series under the race detector, the emitted JSON is
# byte-compared across partition counts (the engine must be exactly
# deterministic), and the committed BENCH_netsim.json is checked
# against a partition-speedup pair gate — 3x when the file was produced
# on 8+ cores, a 1.5x overhead bound otherwise.
# The audit ledger gets its own gates: the adversarial tamper tests
# rerun under -race, a casefile export/verify-ledger happy-path smoke,
# a corrupt-one-byte smoke that must exit nonzero, and benchcheck
# budgets pinning ledger append to <= 1000 ns/op and 0 allocs/op and a
# whole-ledger Verify to 2 allocs/op (its digest and field scratch,
# whatever the ledger's length).
# The netsim bench smoke pins the engine's scheduler step (shallow and
# deep heap), Send (two-node and across a 1,000-node composite's capped
# trunk), heap churn and a steady-state Flow emit (its packet recycled),
# all at one partition, to 0 allocs/op, and an onion relay's forward
# hop to 0 too (the relay re-sends the packet it was handed, and the
# cell is rewritten in place through an allocation-free layer); the
# legal bench smoke pins the warm ruling-cache hit, with and without
# fresh case names, the same way, holds the uncached near-duplicate
# batch (BenchmarkBatchDeltaChain) to 226 allocs/op and an uncached
# Table 1 evaluation to 4, and the
# committed BENCH_legal.json must show that hit at least 2x faster than
# its pre-dispatch baseline. The delta pipeline reruns its
# EvaluateDelta-equals-Evaluate sweep and the batch's keyed-pass
# identity test (rulings, joined errors and counters against
# per-action evaluation) under -race, and smokes evaluate -deltas on a
# JSONL stream.
# The lawgated ruling service gets a live smoke: serve on an ephemeral
# port, run the full conformance probe (every endpoint plus the
# deliberate 4xx paths, including the byte-identity assertion on the
# hand-encoded hot-path responses), then SIGTERM and require a graceful
# exit 0 with final ledger checkpoints sealed; a -short chaos bench
# proves the loadgen schedule completes with every request accounted,
# and the committed BENCH_server.json is gated on latency budgets and a
# rulings/sec floor.
# The wire codec gets its own gates: a short differential fuzz run of
# the functions lawgated serves through (DecodeAction, DecodeActions,
# AppendRulingViewFromRuling and the string escaper) against
# encoding/json, a short differential fuzz run of the served batch
# endpoint (decoder remainders, batch pass, ruling cache and tail table
# together) against per-action uncached evaluation and json.Marshal, a bench smoke pinning the single-ruling and Table 1
# encodes to 0 allocs/op, the single-action decode to its 1 name and
# the 256-action batch decode, in declared and in reversed key order,
# to its 256 names and 90 fresh slices and sub-objects, and pair gates
# on the
# committed BENCH_wire.json proving the codec's speedup over stdlib,
# single-action and batch (the same alloc budgets hold on it); the
# committed BENCH_ledger.json
# additionally proves AppendBatch amortizes at least 2x over looped
# Append.
# The experiment record is byte-reproducible: scripts/regenerate.sh
# rebuilds every artifact into a temp dir, and each file git lists
# under out/ must match its regenerated copy exactly.
# Full benchmarks are not part of the gate (run `scripts/bench.sh` for
# those), but a -short bench smoke proves the bench tooling itself
# still runs and emits parseable JSON; the golden-ruling test in
# internal/scenario pins the engine's Table 1 output, and the
# golden-ledger-root test in internal/investigation pins the ledger
# encoding the same way.
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt -l"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== go build ./..."
go build ./...

echo "== go test ./..."
go test ./...

echo "== go test -race ./..."
go test -race ./...

echo "== go test -tags netsimscribble ./... (recycled packets poisoned, never reused)"
go test -tags netsimscribble ./...

echo "== perfbench module: go vet + go test"
(cd perfbench && GOWORK=off GOFLAGS= go vet ./... && GOWORK=off GOFLAGS= go test ./...)

echo "== smoke: p2phunt -smoke -workers 2"
go run ./cmd/p2phunt -smoke -workers 2 >/dev/null

echo "== smoke: tracewatermark -smoke -workers 2"
go run ./cmd/tracewatermark -smoke -workers 2 >/dev/null

echo "== smoke (degraded substrate, race detector): p2phunt -smoke -faults lossy"
go run -race ./cmd/p2phunt -smoke -faults lossy -workers 2 >/dev/null

echo "== smoke (degraded substrate, race detector): tracewatermark -smoke -faults lossy"
go run -race ./cmd/tracewatermark -smoke -faults lossy -workers 2 >/dev/null

echo "== smoke (sharded engine, race detector): p2phunt -smoke -partitions 4"
go run -race ./cmd/p2phunt -smoke -partitions 4 -workers 2 >/dev/null

echo "== smoke (sharded engine, race detector): tracewatermark -smoke -partitions 3"
go run -race ./cmd/tracewatermark -smoke -partitions 3 -workers 2 >/dev/null

echo "== determinism: lossy smoke JSON byte-identical at -workers 1 and -workers 4"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
go run ./cmd/p2phunt -smoke -faults lossy -json -workers 1 >"$tmpdir/p2p-w1.json"
go run ./cmd/p2phunt -smoke -faults lossy -json -workers 4 >"$tmpdir/p2p-w4.json"
cmp "$tmpdir/p2p-w1.json" "$tmpdir/p2p-w4.json"
go run ./cmd/tracewatermark -smoke -faults lossy -json -workers 1 >"$tmpdir/wm-w1.json"
go run ./cmd/tracewatermark -smoke -faults lossy -json -workers 4 >"$tmpdir/wm-w4.json"
cmp "$tmpdir/wm-w1.json" "$tmpdir/wm-w4.json"

echo "== determinism: sharded smoke JSON byte-identical across partition counts"
go run ./cmd/p2phunt -smoke -json -partitions 1 >"$tmpdir/p2p-p1.json"
go run ./cmd/p2phunt -smoke -json -partitions 4 >"$tmpdir/p2p-p4.json"
cmp "$tmpdir/p2p-p1.json" "$tmpdir/p2p-p4.json"
go run ./cmd/tracewatermark -smoke -json -partitions 1 >"$tmpdir/wm-p1.json"
go run ./cmd/tracewatermark -smoke -json -partitions 3 >"$tmpdir/wm-p3.json"
cmp "$tmpdir/wm-p1.json" "$tmpdir/wm-p3.json"

echo "== determinism: smoke JSON byte-identical across two independent runs"
go run ./cmd/p2phunt -smoke -json >"$tmpdir/p2p-run1.json"
go run ./cmd/p2phunt -smoke -json >"$tmpdir/p2p-run2.json"
cmp "$tmpdir/p2p-run1.json" "$tmpdir/p2p-run2.json"
go run ./cmd/tracewatermark -smoke -json >"$tmpdir/wm-run1.json"
go run ./cmd/tracewatermark -smoke -json >"$tmpdir/wm-run2.json"
cmp "$tmpdir/wm-run1.json" "$tmpdir/wm-run2.json"

echo "== reproducibility: regenerated out/ matches every committed artifact"
tracked=$(git ls-files out/)
if [ -z "$tracked" ]; then
	echo "git lists no committed out/ files to compare" >&2
	exit 1
fi
sh scripts/regenerate.sh -o "$tmpdir/out" >/dev/null
for f in $tracked; do
	cmp "$f" "$tmpdir/out/${f#out/}"
done

echo "== delta equivalence sweep under the race detector"
go test -race -run 'TestDeltaMatchesFullEvaluate|TestDeltaRoundTrip|TestBatchDeltaChainWorkersIdentity' ./internal/legal

echo "== smoke: evaluate -deltas rules a JSONL event stream"
cat >"$tmpdir/events.jsonl" <<'JSONL'
{"name":"ci-stream","actor":1,"timing":1,"data":2,"source":3}
{"fields":[{"field":"encrypted","new":1}]}
{"fields":[{"field":"data","old":2,"new":1}]}
JSONL
go run ./cmd/evaluate -deltas "$tmpdir/events.jsonl" >"$tmpdir/deltas.out"
grep -q '^base: required' "$tmpdir/deltas.out"
grep -q '^2 events, 1 ruling changes$' "$tmpdir/deltas.out"

echo "== wire codec: differential fuzz vs encoding/json (10s smoke)"
go test -run '^FuzzWireRoundTrip$' -fuzz '^FuzzWireRoundTrip$' -fuzztime 10s ./internal/wire

echo "== served batch: differential fuzz vs the plain design (10s smoke)"
# Its inputs are whole batches, each served by three tenants, so
# minimizing every new interesting input would spend the smoke's
# budget; failures are still reported with the input that caused them.
go test -run '^FuzzServedBatch$' -fuzz '^FuzzServedBatch$' -fuzztime 10s -fuzzminimizetime 1x ./internal/server

echo "== ledger tamper detection under the race detector"
go test -race -run 'TestTamper|TestCustodyTamperDetected|TestVerifyAgainstCheckpoint' \
	./internal/ledger ./internal/evidence

echo "== smoke: casefile -export-ledger + verify-ledger happy path"
go run ./cmd/casefile -flow kyllo -export-ledger "$tmpdir/kyllo.ledger" >/dev/null
go run ./cmd/casefile verify-ledger "$tmpdir/kyllo.ledger"

echo "== smoke: verify-ledger detects a corrupted export (expect nonzero exit)"
# Flip one byte mid-file: past the header, inside a sealed record body.
cp "$tmpdir/kyllo.ledger" "$tmpdir/kyllo-corrupt.ledger"
orig=$(dd if="$tmpdir/kyllo-corrupt.ledger" bs=1 skip=40 count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "\\$(printf '%03o' $(((orig + 1) % 256)))" |
	dd of="$tmpdir/kyllo-corrupt.ledger" bs=1 seek=40 conv=notrunc 2>/dev/null
if go run ./cmd/casefile verify-ledger "$tmpdir/kyllo-corrupt.ledger" 2>/dev/null; then
	echo "verify-ledger accepted a corrupted ledger" >&2
	exit 1
fi

echo "== smoke: lawgated serve -> probe -> SIGTERM graceful drain (expect exit 0)"
go build -o "$tmpdir/lawgated" ./cmd/lawgated
"$tmpdir/lawgated" -addr 127.0.0.1:0 -port-file "$tmpdir/lawgated.port" \
	-tenants default,lab 2>"$tmpdir/lawgated.log" &
lawgated_pid=$!
for _ in $(seq 1 100); do
	[ -s "$tmpdir/lawgated.port" ] && break
	sleep 0.1
done
[ -s "$tmpdir/lawgated.port" ] || {
	echo "lawgated never wrote its port file" >&2
	cat "$tmpdir/lawgated.log" >&2
	exit 1
}
"$tmpdir/lawgated" -probe "http://$(cat "$tmpdir/lawgated.port")" >/dev/null
kill -TERM "$lawgated_pid"
wait "$lawgated_pid" # set -e: a non-zero (non-graceful) exit fails the gate
grep -q 'drained clean' "$tmpdir/lawgated.log"
grep -q 'sealed final checkpoint' "$tmpdir/lawgated.log"

echo "== bench smoke: bench.sh -short emits valid BENCH JSON (netsim + legal + ledger)"
scripts/bench.sh -short -o "$tmpdir/bench.json"
# The scheduler and send hot paths must stay allocation-free: the event
# queue moves pointer-free keys over a reused slab, a delivered packet
# rides its event with no clone, and a send across a wide topology reads
# the dense topology tables. A Flow packet comes off the partition's
# free list and goes back on it once delivered. A relay rewrites the
# cell it was handed in place through an allocation-free layer and
# re-sends the packet that carried it, so its forward hop allocates
# nothing.
go run ./scripts/benchcheck \
	-max-allocs 'BenchmarkSimulatorStep=0' \
	-max-allocs 'BenchmarkSimulatorStepDeep=0' \
	-max-allocs 'BenchmarkSend=0' \
	-max-allocs 'BenchmarkSendWide=0' \
	-max-allocs 'BenchmarkHeapChurn=0' \
	-max-allocs 'BenchmarkFlowEmit=0' \
	-max-allocs 'BenchmarkRelayForward=0' \
	"$tmpdir/bench.json"
scripts/bench.sh -short -o "$tmpdir/bench_legal.json" legal
# A warm ruling-cache hit must stay allocation-free, including under
# case names the cache never stored (the name-blind key re-labels the
# memoized ruling). An uncached engine must still answer a batch's
# name-only variants from one evaluation per shape: evaluating every
# slot of BenchmarkBatchDeltaChain costs ~20.8k allocs/op, not 226 (224
# as a rule; a collection that empties the scratch pool mid-run adds
# one or two, and the batch's key table lives in that pool). An
# uncached evaluation walks its bucket on a pooled scratch and
# allocates only the ruling it returns: 4 per Table 1 scene, rounded
# down (TestEvaluateColdAllocs pins the exact count).
go run ./scripts/benchcheck \
	-max-allocs 'BenchmarkRulingsPerSec/warm=0' \
	-max-allocs 'BenchmarkRulingsPerSec/warm-names=0' \
	-max-allocs 'BenchmarkRulingsPerSec/cold=4' \
	-max-allocs 'BenchmarkBatchDeltaChain=226' \
	"$tmpdir/bench_legal.json"
# The smoke proves the tooling; only alloc budgets are asserted on
# it. The 1000 ns budget is enforced below on the committed
# BENCH_ledger.json (median of 5 full runs) — a count=1 benchtime=100x
# smoke sample is too noisy to hold a latency budget against.
# Verify streams every record through one reused digest and scratch,
# so a whole-ledger audit allocates the same 2 objects at any length.
scripts/bench.sh -short -o "$tmpdir/bench_ledger.json" ledger
go run ./scripts/benchcheck \
	-max-allocs 'BenchmarkLedgerAppend=0' \
	-max-allocs 'BenchmarkLedgerVerify=2' \
	"$tmpdir/bench_ledger.json"

scripts/bench.sh -short -o "$tmpdir/bench_wire.json" wire
# A decoded action allocates its name, and a 256-action batch
# allocates its 256 names and the 90 fresh Exposure slices and
# sub-objects its Table 1 actions carry (the ruling cache may keep
# them); scalar fields cost nothing. The same batch with its keys
# reversed takes the folded-key fallback for every member and must
# stay under the same budget.
go run ./scripts/benchcheck \
	-max-allocs 'BenchmarkWireEncode=0' \
	-max-allocs 'BenchmarkWireEncodeTable1=0' \
	-max-allocs 'BenchmarkWireDecode=1' \
	-max-allocs 'BenchmarkWireDecodeBatch=346' \
	-max-allocs 'BenchmarkWireDecodeBatchReordered=346' \
	"$tmpdir/bench_wire.json"

echo "== bench smoke: chaos bench completes with every request accounted (server)"
scripts/bench.sh -short -o "$tmpdir/bench_server.json" server
go run ./scripts/benchcheck "$tmpdir/bench_server.json"

echo "== benchcheck: committed BENCH files still valid"
# The sharded-engine speedup claim is machine-relative, so the gate
# reads the core count recorded in the committed BENCH_netsim.json.
# With 8+ cores the 3x partition-speedup pair gate arms; on smaller
# machines parallelism cannot be demonstrated, but the sharded run must
# still beat (or at worst match, 1.5x bound) the single-partition run —
# the per-partition heaps are shallower, so sharding pays even serially.
cores=$(sed -n 's/^  "cores": \([0-9]*\),$/\1/p' BENCH_netsim.json)
if [ "${cores:-0}" -ge 8 ]; then
	go run ./scripts/benchcheck \
		-min-pair-speedup 'BenchmarkShardedRun/comp-p1:BenchmarkShardedRun/comp-p8:3.0' \
		BENCH_netsim.json
else
	go run ./scripts/benchcheck \
		-max-pair-ratio 'BenchmarkShardedRun/comp-p1:BenchmarkShardedRun/comp-p8:1.5' \
		BENCH_netsim.json
fi
go run ./scripts/benchcheck \
	-min-speedup 'BenchmarkRulingsPerSec/warm=2.0' \
	BENCH_legal.json
# The batched append must keep amortizing: at least 2x cheaper per
# record than sealing the same drafts through looped single appends.
go run ./scripts/benchcheck \
	-min-speedup 'BenchmarkLedgerAppend=4.0' \
	-max-ns 'BenchmarkLedgerAppend=1000' \
	-max-allocs 'BenchmarkLedgerAppend=0' \
	-max-allocs 'BenchmarkLedgerAppendBatch=0' \
	-min-pair-speedup 'BenchmarkLedgerAppendLooped:BenchmarkLedgerAppendBatch:2.0' \
	BENCH_ledger.json
# The hand-rolled codec must hold the same allocation budgets (encodes
# allocation-free, decodes only names and what the ruling cache may
# keep) and keep beating the encoding/json implementations it mirrors
# byte-for-byte. The batch decode pays once per distinct action
# remainder, so it beats stdlib by more than the single-action decode
# does.
go run ./scripts/benchcheck \
	-max-allocs 'BenchmarkWireEncode=0' \
	-max-allocs 'BenchmarkWireEncodeTable1=0' \
	-max-allocs 'BenchmarkWireDecode=1' \
	-max-allocs 'BenchmarkWireDecodeBatch=346' \
	-max-allocs 'BenchmarkWireDecodeBatchReordered=346' \
	-min-pair-speedup 'BenchmarkWireEncodeStdlib:BenchmarkWireEncode:2.0' \
	-min-pair-speedup 'BenchmarkWireDecodeStdlib:BenchmarkWireDecode:3.0' \
	-min-pair-speedup 'BenchmarkWireDecodeBatchStdlib:BenchmarkWireDecodeBatch:15.0' \
	BENCH_wire.json
# p50 carries the real latency budget; p99 is lenient because the
# chaos schedule deliberately kills keep-alive connections (413s and
# recovered panics force closes), so tail evaluates pay reconnect cost.
go run ./scripts/benchcheck \
	-max-ns 'ServerEvaluateP50=5000000' \
	-max-ns 'ServerEvaluateP99=200000000' \
	-min-ops 'ServerRulingsPerSec=1000' \
	BENCH_server.json

echo "tier-1 gate: PASS"
