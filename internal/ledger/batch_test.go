package ledger

import (
	"bytes"
	"fmt"
	"testing"
)

// batchDrafts builds n distinct drafts so hash collisions across
// positions cannot mask an ordering bug.
func batchDrafts(n int) []Draft {
	drafts := make([]Draft, n)
	for i := range drafts {
		drafts[i] = Draft{
			At: int64(1000 + i), Kind: KindCapture, Code: uint32(i % 7),
			Actor:   "op",
			Subject: fmt.Sprintf("dev-%d", i%13),
			Note:    fmt.Sprintf("event %d", i),
		}
	}
	return drafts
}

// AppendBatch defers Merkle interior maintenance and seals with a
// different (one-shot) hash path than Append; both must be
// unobservable. Every record, the chain head, the root, and proofs
// must come out byte-identical to looped eager appends, for batch
// sizes crossing chunk boundaries and for reads issued with deferred
// interiors still pending.
func TestAppendBatchMatchesLoopedAppend(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 64, 257, chunkSize + 33} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			drafts := batchDrafts(n)
			batched, looped := New(), New()
			if got, want := batched.AppendBatch(drafts), uint64(0); got != want {
				t.Fatalf("first seq = %d, want %d", got, want)
			}
			for _, d := range drafts {
				looped.Append(d)
			}
			// Read the root FIRST — with interiors still deferred — so the
			// flush-on-read path is what this test exercises.
			if batched.Root() != looped.Root() {
				t.Fatal("batched root != looped root")
			}
			if batched.Head() != looped.Head() {
				t.Fatal("batched head != looped head")
			}
			br, lr := batched.Records(), looped.Records()
			if len(br) != len(lr) {
				t.Fatalf("record counts %d != %d", len(br), len(lr))
			}
			for i := range br {
				if br[i] != lr[i] {
					t.Fatalf("record %d differs: %+v vs %+v", i, br[i], lr[i])
				}
			}
			if err := batched.Verify(); err != nil {
				t.Fatalf("batched ledger verify: %v", err)
			}
		})
	}
}

// A proof requested immediately after AppendBatch — before any other
// read has flushed the deferred interiors — must still verify against
// the simultaneously requested root, and the eager ledger must accept
// the same proof.
func TestAppendBatchProofBeforeAnyRead(t *testing.T) {
	drafts := batchDrafts(100)
	l := New()
	l.AppendBatch(drafts[:60])
	p, err := l.Proof(17)
	if err != nil {
		t.Fatal(err)
	}
	rec, err := l.Record(17)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyProof(rec.Hash, p, l.Root()) {
		t.Fatal("proof after un-flushed batch rejected")
	}

	// Consistency across a batch boundary: checkpoint, batch more,
	// prove the extension.
	cp := l.Checkpoint()
	l.AppendBatch(drafts[60:])
	cons, err := l.ConsistencyProof(cp.Size, uint64(l.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyConsistency(cons, cp.Root, l.Root()) {
		t.Fatal("consistency proof across batch append rejected")
	}
}

// Eager Append and AppendBatch must interleave freely: each eager push
// first flushes whatever a preceding batch deferred.
func TestAppendBatchInterleavesWithAppend(t *testing.T) {
	drafts := batchDrafts(90)
	mixed, eager := New(), New()
	mixed.AppendBatch(drafts[:30])
	for _, d := range drafts[30:45] {
		mixed.Append(d)
	}
	mixed.AppendBatch(drafts[45:46]) // single-element batch
	mixed.AppendBatch(nil)           // empty batch is a no-op
	for _, d := range drafts[46:60] {
		mixed.Append(d)
	}
	mixed.AppendBatch(drafts[60:])
	for _, d := range drafts {
		eager.Append(d)
	}
	if mixed.Root() != eager.Root() || mixed.Head() != eager.Head() {
		t.Fatal("interleaved appends diverge from all-eager ledger")
	}
	if err := mixed.Verify(); err != nil {
		t.Fatalf("interleaved ledger verify: %v", err)
	}

	// Serialization sees the flushed index: the two ledgers' exported
	// bytes are identical, and the batch-built one round-trips.
	var mb, eb bytes.Buffer
	if _, err := mixed.WriteTo(&mb); err != nil {
		t.Fatal(err)
	}
	if _, err := eager.WriteTo(&eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mb.Bytes(), eb.Bytes()) {
		t.Fatal("serialized batch-built ledger differs from eager-built")
	}
	loaded, err := Load(mb.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Verify(); err != nil {
		t.Fatalf("loaded ledger verify: %v", err)
	}
}
