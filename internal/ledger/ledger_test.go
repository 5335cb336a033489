package ledger

import (
	"bytes"
	"crypto/sha256"
	"errors"
	"fmt"
	"testing"
)

// draft returns a deterministic draft for record i.
func draft(i int) Draft {
	return Draft{
		At:      int64(1_000_000 * i),
		Kind:    Kind(i%int(KindCaseEvent)) + KindCustody,
		Code:    uint32(i % 7),
		Actor:   fmt.Sprintf("actor-%d", i%3),
		Subject: fmt.Sprintf("EV-%04d", i),
		Note:    fmt.Sprintf("note for record %d", i),
	}
}

func build(n int) *Ledger {
	l := New()
	for i := 0; i < n; i++ {
		if got := l.Append(draft(i)); got != uint64(i) {
			panic(fmt.Sprintf("Append returned seq %d, want %d", got, i))
		}
	}
	return l
}

func TestAppendAndVerify(t *testing.T) {
	l := build(100)
	if l.Len() != 100 {
		t.Fatalf("Len = %d, want 100", l.Len())
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	recs := l.Records()
	var prev [32]byte
	for i, r := range recs {
		if r.Seq != uint64(i) {
			t.Fatalf("record %d has seq %d", i, r.Seq)
		}
		if r.Prev != prev {
			t.Fatalf("record %d back-link broken", i)
		}
		prev = r.Hash
	}
	if l.Head() != prev {
		t.Fatal("Head does not match last record hash")
	}
}

func TestEmptyLedgerVerifies(t *testing.T) {
	l := New()
	if err := l.Verify(); err != nil {
		t.Fatalf("empty ledger must verify: %v", err)
	}
	cp := l.Checkpoint()
	if cp.Size != 0 || cp.Root != emptyRoot() {
		t.Fatalf("empty checkpoint = %+v", cp)
	}
}

func TestAppendBatchMatchesAppend(t *testing.T) {
	one := build(50)
	drafts := make([]Draft, 50)
	for i := range drafts {
		drafts[i] = draft(i)
	}
	batch := New()
	if first := batch.AppendBatch(drafts); first != 0 {
		t.Fatalf("AppendBatch first seq = %d, want 0", first)
	}
	if one.Head() != batch.Head() {
		t.Fatal("batch and singleton appends disagree on head hash")
	}
	if one.Root() != batch.Root() {
		t.Fatal("batch and singleton appends disagree on root")
	}
}

func TestCapacityPreallocationEquivalent(t *testing.T) {
	plain := build(300)
	pre := New(WithCapacity(300))
	for i := 0; i < 300; i++ {
		pre.Append(draft(i))
	}
	if plain.Head() != pre.Head() || plain.Root() != pre.Root() {
		t.Fatal("WithCapacity changed ledger content")
	}
}

// TestRepeatedCapacityLastWins: applying WithCapacity twice must leave
// a ledger that grows past its reservation as an unreserved one does.
// A second reservation that appended to the first would leave a short
// chunk after a full one, which the chunk arithmetic cannot index.
func TestRepeatedCapacityLastWins(t *testing.T) {
	n := 2*chunkSize + 100
	plain := New()
	for _, opts := range [][]Option{
		{WithCapacity(100), WithCapacity(100)},
		{WithCapacity(chunkSize + 1), WithCapacity(100)},
		{WithCapacity(100), WithCapacity(chunkSize + 1)},
	} {
		l := New(opts...)
		for i := 0; i < n; i++ {
			if plain.Len() < n {
				plain.Append(draft(i))
			}
			l.Append(draft(i))
		}
		if err := l.Verify(); err != nil {
			t.Fatalf("Verify: %v", err)
		}
		if l.Head() != plain.Head() || l.Root() != plain.Root() {
			t.Fatal("repeated WithCapacity changed ledger content")
		}
	}
}

// TestProofExhaustive proves every record of every ledger size up to 70
// against the root — covering every tree shape class (powers of two,
// one-off-powers, odd tails).
func TestProofExhaustive(t *testing.T) {
	l := New()
	for n := 1; n <= 70; n++ {
		l.Append(draft(n - 1))
		root := l.Root()
		for i := 0; i < n; i++ {
			p, err := l.Proof(uint64(i))
			if err != nil {
				t.Fatalf("size %d Proof(%d): %v", n, i, err)
			}
			rec, err := l.Record(uint64(i))
			if err != nil {
				t.Fatal(err)
			}
			if !VerifyProof(rec.Hash, p, root) {
				t.Fatalf("size %d: proof for record %d rejected", n, i)
			}
			// The proof must not verify a different record.
			other, _ := l.Record(uint64((i + 1) % n))
			if n > 1 && VerifyProof(other.Hash, p, root) {
				t.Fatalf("size %d: proof for record %d accepted wrong leaf", n, i)
			}
		}
	}
}

func TestHistoricalRootsStable(t *testing.T) {
	l := New()
	roots := make([][32]byte, 0, 40)
	for n := 1; n <= 40; n++ {
		l.Append(draft(n - 1))
		roots = append(roots, l.Root())
	}
	for n := 1; n <= 40; n++ {
		got, err := l.RootAt(uint64(n))
		if err != nil {
			t.Fatalf("RootAt(%d): %v", n, err)
		}
		if got != roots[n-1] {
			t.Fatalf("RootAt(%d) changed after later appends", n)
		}
		// Proofs against historical roots still verify.
		for i := 0; i < n; i += 7 {
			p, err := l.ProofAt(uint64(i), uint64(n))
			if err != nil {
				t.Fatalf("ProofAt(%d, %d): %v", i, n, err)
			}
			rec, _ := l.Record(uint64(i))
			if !VerifyProof(rec.Hash, p, roots[n-1]) {
				t.Fatalf("historical proof for record %d at size %d rejected", i, n)
			}
		}
	}
}

func TestProofOutOfRange(t *testing.T) {
	l := build(5)
	if _, err := l.Proof(5); err == nil {
		t.Fatal("Proof(5) on 5-record ledger must fail")
	}
	if _, err := l.ProofAt(1, 9); err == nil {
		t.Fatal("ProofAt beyond size must fail")
	}
	if _, err := l.RootAt(6); err == nil {
		t.Fatal("RootAt beyond size must fail")
	}
}

func TestVerifyAgainstCheckpoint(t *testing.T) {
	l := build(30)
	cp := l.Checkpoint()
	for i := 30; i < 60; i++ {
		l.Append(draft(i))
	}
	if err := l.VerifyAgainst(cp); err != nil {
		t.Fatalf("grown ledger must satisfy old checkpoint: %v", err)
	}
	short := Reconstruct(l.Records()[:20])
	if err := short.VerifyAgainst(cp); !errors.Is(err, ErrTampered) {
		t.Fatalf("truncated ledger VerifyAgainst = %v, want ErrTampered", err)
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	l := build(50)
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	got, err := Load(buf.Bytes())
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("loaded ledger Verify: %v", err)
	}
	if got.Head() != l.Head() || got.Root() != l.Root() || got.Len() != l.Len() {
		t.Fatal("round trip changed ledger commitment")
	}
	a, b := l.Records(), got.Records()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("record %d changed in round trip:\n  %+v\n  %+v", i, a[i], b[i])
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		[]byte("NOTMAGIC________________"),
		append([]byte("LGLEDGR1"), 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF),
	}
	for i, data := range cases {
		if _, err := Load(data); !errors.Is(err, ErrMalformed) {
			t.Errorf("case %d: Load = %v, want ErrMalformed", i, err)
		}
	}
	// Truncated mid-record.
	l := build(10)
	var buf bytes.Buffer
	l.WriteTo(&buf)
	if _, err := Load(buf.Bytes()[:buf.Len()-70]); !errors.Is(err, ErrMalformed) {
		t.Errorf("truncated file Load = %v, want ErrMalformed", err)
	}
}

func TestSlabBoundaries(t *testing.T) {
	n := chunkSize*2 + 17
	l := New()
	for i := 0; i < n; i++ {
		l.Append(Draft{At: int64(i), Kind: KindCustody, Note: "x"})
	}
	if l.Len() != n {
		t.Fatalf("Len = %d, want %d", l.Len(), n)
	}
	if err := l.Verify(); err != nil {
		t.Fatalf("Verify across chunks: %v", err)
	}
	p, err := l.Proof(chunkSize) // first record of second chunk
	if err != nil {
		t.Fatal(err)
	}
	rec, _ := l.Record(chunkSize)
	if !VerifyProof(rec.Hash, p, l.Root()) {
		t.Fatal("proof across chunk boundary rejected")
	}
}

func TestKindString(t *testing.T) {
	for k := KindCustody; k <= KindCaseEvent; k++ {
		if !k.Valid() || k.String() == "" || k.String()[0] == 'K' {
			t.Errorf("kind %d badly named: %q", k, k.String())
		}
	}
	if Kind(99).Valid() || Kind(99).String() != "Kind(99)" {
		t.Error("undefined kind must be invalid with placeholder name")
	}
}

// TestSealMatchesSerializedBody pins the invariant both encoders share:
// the chain hash is exactly SHA-256 over the serialized record body.
func TestSealMatchesSerializedBody(t *testing.T) {
	l := build(20)
	for _, r := range l.Records() {
		body := AppendRecordBody(nil, &r)
		if got := sha256.Sum256(body); got != r.Hash {
			t.Fatalf("record %d: seal hash differs from SHA-256(body)", r.Seq)
		}
	}
}
