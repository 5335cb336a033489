package ledger

import (
	"runtime"
	"testing"
)

// mallocs returns the exact number of heap allocations f makes. Unlike
// testing.AllocsPerRun, which divides by the run count and truncates,
// it cannot round a few chunk allocations over thousands of appends
// down to zero.
func mallocs(f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// The append hot path must not allocate when capacity is preallocated:
// the record store, every index level, and the sealing scratch are all
// reserved up front. This guard is what keeps the millions-of-appends/sec
// target honest. The appends cross the 4,096-record chunk boundary
// twice, so a chunk WithCapacity failed to reserve shows as an
// allocation; the same loop on an unreserved ledger proves the count
// sees them.
func TestAppendAllocsZero(t *testing.T) {
	const n = 10_000
	d := Draft{
		At: 42, Kind: KindCustody, Code: 3,
		Actor: "agent-smith", Subject: "EV-0001", Note: "routine review",
	}
	appendAll := func(l *Ledger) uint64 {
		// Warm the scratch buffer past the longest field used below.
		l.Append(Draft{At: 0, Kind: KindCustody, Actor: "warmup-actor",
			Subject: "warmup-subject", Note: "warmup note long enough to size scratch"})
		return mallocs(func() {
			for i := 0; i < n; i++ {
				l.Append(d)
			}
		})
	}
	if got := appendAll(New(WithCapacity(n + 1))); got != 0 {
		t.Fatalf("%d appends made %d allocations with preallocated capacity, want 0", n, got)
	}
	if got := appendAll(New()); got == 0 {
		t.Fatal("appends to an unreserved ledger counted no allocations; the count is blind")
	}
}

// AppendBatch shares the guard.
func TestAppendBatchAllocsZero(t *testing.T) {
	const rounds = 500
	const batch = 16
	drafts := make([]Draft, batch)
	for i := range drafts {
		drafts[i] = Draft{At: int64(i), Kind: KindCapture, Actor: "op",
			Subject: "dev-3", Note: "delta{data:addressing>content}"}
	}
	appendAll := func(l *Ledger) uint64 {
		l.AppendBatch(drafts) // warm scratch
		return mallocs(func() {
			for i := 0; i < rounds; i++ {
				l.AppendBatch(drafts)
			}
			l.Checkpoint()
		})
	}
	if got := appendAll(New(WithCapacity(rounds*batch + batch))); got != 0 {
		t.Fatalf("%d batches made %d allocations with preallocated capacity, want 0", rounds, got)
	}
	if got := appendAll(New()); got == 0 {
		t.Fatal("batches into an unreserved ledger counted no allocations; the count is blind")
	}
}

// verifyAllocs is the exact allocation count of one Verify: the
// streaming digest and its field scratch, whatever the ledger's length.
const verifyAllocs = 2

// Verify walks the whole chain on one reused digest and scratch, so its
// allocations do not grow with the ledger.
func TestVerifyAllocsConstant(t *testing.T) {
	for _, n := range []int{1, 100, 3*chunkSize + 5} {
		l := build(n)
		if got := testing.AllocsPerRun(5, func() {
			if err := l.Verify(); err != nil {
				t.Fatal(err)
			}
		}); got != verifyAllocs {
			t.Errorf("Verify of %d records allocates %v, want %d", n, got, verifyAllocs)
		}
	}
}

// Proof verification needs no ledger and allocates nothing.
func TestVerifyProofAllocsZero(t *testing.T) {
	l := build(1000)
	rec, _ := l.Record(337)
	p, _ := l.Proof(337)
	cp, _ := l.ConsistencyProof(337, 1000)
	oldRoot, _ := l.RootAt(337)
	root := l.Root()
	if got := testing.AllocsPerRun(100, func() {
		if !VerifyProof(rec.Hash, p, root) || !VerifyConsistency(cp, oldRoot, root) {
			t.Fatal("honest proof rejected")
		}
	}); got != 0 {
		t.Fatalf("VerifyProof + VerifyConsistency allocate %v, want 0", got)
	}
}

// servedFootprint bounds the heap bytes a served-ruling audit record
// costs the ledger to hold: its 64-byte draft, its leaf and its share
// of the interior nodes, plus the copies the first chunk of each store
// makes while it doubles. It was measured at 162.6 bytes per record and
// is set 10% above.
const servedFootprint = 179

// TestServedRecordFootprint pins the allocation per record of the
// served-ruling audit path: 50,000 drafts sealed through AppendBatch in
// lawgated's 64-draft spool batches, then one Checkpoint. TotalAlloc
// counts bytes allocated, not what a collection happens to free, so the
// figure is the same on every host.
func TestServedRecordFootprint(t *testing.T) {
	const n = 50_000
	drafts := make([]Draft, 64)
	for i := range drafts {
		drafts[i] = servedDraft
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	l := New()
	for i := 0; i < n; i += len(drafts) {
		l.AppendBatch(drafts[:min(len(drafts), n-i)])
	}
	l.Checkpoint()
	runtime.ReadMemStats(&after)
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	perRecord := float64(after.TotalAlloc-before.TotalAlloc) / n
	t.Logf("%.1f bytes allocated per record", perRecord)
	if perRecord > servedFootprint {
		t.Fatalf("%.1f bytes allocated per served record, budget %d", perRecord, servedFootprint)
	}
}
