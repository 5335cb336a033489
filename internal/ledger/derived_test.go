package ledger

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"testing"
)

// The ledger stores only drafts; Seq, Prev and Hash come back derived
// from position and the Merkle leaves. Across three chunks, every
// record must read back as the chain it was sealed as, and sampled
// inclusion proofs of its derived Hash must hold.
func TestDerivedFieldsAcrossChunks(t *testing.T) {
	n := 2*chunkSize + 17
	drafts := batchDrafts(n)
	l := New()
	l.AppendBatch(drafts[:chunkSize-3])
	for _, d := range drafts[chunkSize-3 : chunkSize+3] {
		l.Append(d)
	}
	l.AppendBatch(drafts[chunkSize+3:])

	recs := l.Records()
	if len(recs) != n {
		t.Fatalf("Records() holds %d records, want %d", len(recs), n)
	}
	var prev [32]byte
	for i := range recs {
		r := &recs[i]
		if r.Seq != uint64(i) {
			t.Fatalf("record %d: Seq = %d", i, r.Seq)
		}
		if r.Prev != prev {
			t.Fatalf("record %d: Prev is not record %d's Hash", i, i-1)
		}
		if r.draft() != drafts[i] {
			t.Fatalf("record %d: producer fields %+v, want %+v", i, r.draft(), drafts[i])
		}
		prev = r.Hash
	}
	if l.Head() != prev {
		t.Fatal("Head is not the last record's Hash")
	}
	root := l.Root()
	for _, i := range []int{0, 1, chunkSize - 1, chunkSize, chunkSize + 1, 2*chunkSize - 1, 2 * chunkSize, n - 1, 5000, 7777} {
		rec, err := l.Record(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if rec != recs[i] {
			t.Fatalf("Record(%d) differs from Records()[%d]", i, i)
		}
		if rec.Hash != sha256.Sum256(AppendRecordBody(nil, &rec)) {
			t.Fatalf("record %d: Hash is not SHA-256 over its body", i)
		}
		p, err := l.Proof(uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyProof(rec.Hash, p, root) {
			t.Fatalf("record %d: inclusion proof of its Hash rejected", i)
		}
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// Tampering at the first chunk boundary and at the head record must be
// reported at the exact index, like the interior cases of
// TestTamperTable.
func TestTamperAtChunkBoundaryAndHead(t *testing.T) {
	n := chunkSize + 40
	head := n - 1
	cases := []struct {
		name   string
		mutate func(recs []Record) int // returns the index Verify must report
	}{
		{"note-last-of-first-chunk", func(recs []Record) int {
			recs[chunkSize-1].Note = "rewritten"
			return chunkSize - 1
		}},
		{"note-first-of-second-chunk", func(recs []Record) int {
			recs[chunkSize].Note = "rewritten"
			return chunkSize
		}},
		{"seq-first-of-second-chunk", func(recs []Record) int {
			recs[chunkSize].Seq = chunkSize - 1
			return chunkSize
		}},
		{"prev-first-of-second-chunk", func(recs []Record) int {
			recs[chunkSize].Prev[0] ^= 1
			return chunkSize
		}},
		{"swap-hashes-across-boundary", func(recs []Record) int {
			recs[chunkSize-1].Hash, recs[chunkSize].Hash = recs[chunkSize].Hash, recs[chunkSize-1].Hash
			return chunkSize - 1
		}},
		{"delete-first-of-second-chunk", func(recs []Record) int {
			copy(recs[chunkSize:], recs[chunkSize+1:])
			recs[head] = recs[head-1] // keep the length; the seq check fires first
			return chunkSize
		}},
		{"head-note", func(recs []Record) int {
			recs[head].Note = "rewritten"
			return head
		}},
		{"head-seq", func(recs []Record) int {
			recs[head].Seq++
			return head
		}},
		{"head-prev", func(recs []Record) int {
			recs[head].Prev[31] ^= 1
			return head
		}},
		{"head-hash", func(recs []Record) int {
			recs[head].Hash[0] ^= 1
			return head
		}},
	}
	honest := New()
	honest.AppendBatch(batchDrafts(n))
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			recs := honest.Records()
			want := tc.mutate(recs)
			err := Reconstruct(recs).Verify()
			var te *TamperError
			if !errors.Is(err, ErrTampered) || !errors.As(err, &te) {
				t.Fatalf("Verify = %v, want a *TamperError", err)
			}
			if te.Index != uint64(want) {
				t.Fatalf("TamperError.Index = %d, want %d (%v)", te.Index, want, err)
			}
		})
	}
}

// A file whose only damage is a stored Seq or Prev must not come out
// of Load and WriteTo repaired: the ledger derives both fields, so
// writing it would give a file that passes Verify. WriteTo refuses it
// with the TamperError Verify reports, and writes nothing.
func TestMislinkedLedgerNotSerialized(t *testing.T) {
	honest := build(10)
	var clean bytes.Buffer
	if _, err := honest.WriteTo(&clean); err != nil {
		t.Fatal(err)
	}
	// Record 0's body follows the 16-byte file header: it opens with
	// its 8-byte big-endian Seq and closes with its 32-byte Prev.
	rec0, _ := honest.Record(0)
	const body0 = 16
	cases := []struct {
		name string
		off  int
	}{
		{"seq", body0 + 7},
		{"prev", body0 + len(AppendRecordBody(nil, &rec0)) - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			data := bytes.Clone(clean.Bytes())
			data[tc.off] ^= 1
			l, err := Load(data)
			if err != nil {
				t.Fatalf("Load: %v", err)
			}
			verr := l.Verify()
			var te *TamperError
			if !errors.As(verr, &te) || te.Index != 0 {
				t.Fatalf("Verify = %v, want a TamperError at record 0", verr)
			}
			var out bytes.Buffer
			n, werr := l.WriteTo(&out)
			var wte *TamperError
			if !errors.As(werr, &wte) || *wte != *te {
				t.Fatalf("WriteTo error = %v, want Verify's %v", werr, verr)
			}
			if n != 0 || out.Len() != 0 {
				t.Fatalf("WriteTo wrote %d bytes of a mislinked ledger", out.Len())
			}
		})
	}
}
