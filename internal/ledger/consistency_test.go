package ledger

import (
	"fmt"
	"testing"
)

// grow appends n more filler records and returns the ledger.
func grow(l *Ledger, n int) {
	for i := 0; i < n; i++ {
		l.Append(Draft{
			At:      int64(l.Len()),
			Kind:    KindCaseEvent,
			Code:    uint32(l.Len()),
			Actor:   "prover",
			Subject: fmt.Sprintf("item-%d", l.Len()),
			Note:    "consistency filler",
		})
	}
}

// TestConsistencyExhaustive proves every (m, n) size pair up to a
// multi-level tree: the proof generated for sizes m <= n must verify
// against the independently computed roots at those sizes, covering
// perfect trees, ragged right edges, and the power-of-two prover
// shortcut.
func TestConsistencyExhaustive(t *testing.T) {
	const maxSize = 130
	l := New()
	roots := make([][32]byte, maxSize+1)
	roots[0] = emptyRoot()
	for n := 1; n <= maxSize; n++ {
		grow(l, 1)
		r, err := l.RootAt(uint64(n))
		if err != nil {
			t.Fatalf("RootAt(%d): %v", n, err)
		}
		roots[n] = r
	}
	for n := 0; n <= maxSize; n++ {
		for m := 0; m <= n; m++ {
			p, err := l.ConsistencyProof(uint64(m), uint64(n))
			if err != nil {
				t.Fatalf("ConsistencyProof(%d, %d): %v", m, n, err)
			}
			if !VerifyConsistency(p, roots[m], roots[n]) {
				t.Fatalf("proof for %d -> %d rejected", m, n)
			}
		}
	}
}

// TestConsistencyRejectsForgery feeds the verifier wrong roots,
// mutated paths, truncations, and size lies; every one must fail.
func TestConsistencyRejectsForgery(t *testing.T) {
	l := New()
	grow(l, 100)
	oldRoot, err := l.RootAt(37)
	if err != nil {
		t.Fatal(err)
	}
	newRoot := l.Root()
	p, err := l.ConsistencyProof(37, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyConsistency(p, oldRoot, newRoot) {
		t.Fatal("honest proof rejected")
	}

	var wrong [32]byte
	wrong[0] = 0xff
	if VerifyConsistency(p, wrong, newRoot) {
		t.Error("accepted with wrong old root")
	}
	if VerifyConsistency(p, oldRoot, wrong) {
		t.Error("accepted with wrong new root")
	}

	for i := range p.Path {
		mut := p
		mut.Path = append([][32]byte(nil), p.Path...)
		mut.Path[i][7] ^= 0x01
		if VerifyConsistency(mut, oldRoot, newRoot) {
			t.Errorf("accepted with path node %d corrupted", i)
		}
	}
	trunc := p
	trunc.Path = p.Path[:len(p.Path)-1]
	if VerifyConsistency(trunc, oldRoot, newRoot) {
		t.Error("accepted a truncated path")
	}
	padded := p
	padded.Path = append(append([][32]byte(nil), p.Path...), wrong)
	if VerifyConsistency(padded, oldRoot, newRoot) {
		t.Error("accepted a padded path")
	}

	// Size lies: a proof's sizes travel inside authenticated checkpoints
	// (the root cryptographically commits to the leaf sequence, sizes
	// included), so the verifier's own size checks only need to catch
	// structural mismatches like these — not every (size, root) pairing
	// an adversary could assert about trees nobody built.
	lied := p
	lied.OldSize = 36
	if VerifyConsistency(lied, oldRoot, newRoot) {
		t.Error("accepted with understated old size")
	}
	swapped := ConsistencyProof{OldSize: 100, NewSize: 37, Path: p.Path}
	if VerifyConsistency(swapped, newRoot, oldRoot) {
		t.Error("accepted with sizes swapped")
	}
}

// TestConsistencyDetectsRewrite is the attack the proof exists for: a
// ledger that drops and re-seals a committed record produces roots no
// consistency proof can bridge from the original checkpoint.
func TestConsistencyDetectsRewrite(t *testing.T) {
	l := New()
	grow(l, 40)
	cp := l.Checkpoint()
	grow(l, 20)

	// Honest growth: the old checkpoint root is provably a prefix.
	p, err := l.ConsistencyProof(cp.Size, uint64(l.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyConsistency(p, cp.Root, l.Root()) {
		t.Fatal("honest extension rejected")
	}

	// Rewritten history: replay all records but alter one inside the
	// committed prefix, re-sealing the chain from there.
	records := l.Records()
	records[17].Note = "rewritten"
	forged := New()
	for i := range records {
		forged.Append(records[i].draft())
	}
	fp, err := forged.ConsistencyProof(cp.Size, uint64(forged.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if VerifyConsistency(fp, cp.Root, forged.Root()) {
		t.Error("forged history produced a proof bridging the original checkpoint")
	}
}

// TestConsistencyEdges pins the degenerate shapes: empty-to-anything,
// equal sizes, single records, and out-of-range requests.
func TestConsistencyEdges(t *testing.T) {
	l := New()
	grow(l, 5)

	p, err := l.ConsistencyProof(0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Path) != 0 {
		t.Errorf("0 -> 5 proof has %d nodes, want 0", len(p.Path))
	}
	if !VerifyConsistency(p, emptyRoot(), l.Root()) {
		t.Error("empty-prefix proof rejected")
	}
	var nonEmpty [32]byte
	nonEmpty[0] = 1
	if VerifyConsistency(p, nonEmpty, l.Root()) {
		t.Error("empty-prefix proof accepted a non-empty old root")
	}

	p, err = l.ConsistencyProof(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyConsistency(p, l.Root(), l.Root()) {
		t.Error("equal-size proof rejected")
	}

	if _, err := l.ConsistencyProof(3, 6); err == nil {
		t.Error("n beyond ledger size accepted")
	}
	if _, err := l.ConsistencyProof(6, 5); err == nil {
		t.Error("m > n accepted")
	}
	if VerifyConsistency(ConsistencyProof{OldSize: 2, NewSize: 5}, l.Root(), l.Root()) {
		t.Error("verifier accepted an empty path for 0 < m < n")
	}
}
