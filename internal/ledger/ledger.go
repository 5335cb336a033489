package ledger

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"
)

// ErrTampered is the sentinel every chain-verification failure wraps.
var ErrTampered = errors.New("ledger: tampered")

// TamperError pinpoints the first record at which verification failed.
type TamperError struct {
	// Index is the sequence number of the offending record.
	Index uint64
	// Reason says what failed at that record.
	Reason string
}

// Error implements error.
func (e *TamperError) Error() string {
	return fmt.Sprintf("ledger: tampered at record %d: %s", e.Index, e.Reason)
}

// Unwrap makes errors.Is(err, ErrTampered) hold.
func (e *TamperError) Unwrap() error { return ErrTampered }

// Checkpoint is a portable commitment to a ledger prefix: the record
// count, the Merkle root over those records, and the chain head hash.
// Publish one (to a report, an opinion, another party) and any later
// truncation or rewrite of that prefix is detectable by VerifyAgainst.
type Checkpoint struct {
	// Size is the number of records committed to.
	Size uint64
	// Root is the Merkle root over the first Size records.
	Root [32]byte
	// Head is the chain hash of record Size-1 (zero when Size is 0).
	Head [32]byte
}

// Ledger is the append-only, hash-chained audit ledger. The zero value
// is not usable; call New. A Ledger is safe for concurrent use.
//
// It stores per record only what the producer supplied (a Draft); the
// rest of a Record is derived. Seq is the record's position, Hash is
// its Merkle leaf, and Prev is the previous leaf.
type Ledger struct {
	mu   sync.Mutex
	recs chunked[Draft]
	idx  index
	seal sealer
	// mislinked is the first record whose Seq or Prev, as given to
	// Reconstruct, disagreed with its position. The ledger derives both
	// fields, so it cannot hold the given values; it holds this error
	// instead, which Verify reports at its index.
	mislinked *TamperError
	// loaded carries the trailer checkpoint of a deserialized ledger,
	// so Verify can detect a truncated or rewritten tail even without
	// an externally retained checkpoint.
	loaded *Checkpoint
}

// Option configures New.
type Option func(*Ledger)

// WithCapacity preallocates the record store and every index level
// for n records, so the first n appends perform no allocation at all.
func WithCapacity(n int) Option {
	return func(l *Ledger) {
		if n <= 0 {
			return
		}
		l.recs.reserve(uint64(n))
		l.idx.reserve(uint64(n))
	}
}

// New returns an empty ledger.
func New(opts ...Option) *Ledger {
	l := &Ledger{}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// Len returns the number of sealed records.
func (l *Ledger) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.recs.n)
}

// Head returns the chain head hash (zero for an empty ledger).
func (l *Ledger) Head() [32]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	return *l.prev(l.recs.n)
}

// prev returns the back-link of record seq: the previous record's
// hash, or zero for the first record. Callers hold l.mu.
func (l *Ledger) prev(seq uint64) *[32]byte {
	if seq == 0 {
		return &zeroHash
	}
	return l.idx.leaf(seq - 1)
}

// record assembles record seq from its stored draft and its derived
// fields. Callers hold l.mu.
func (l *Ledger) record(seq uint64) Record {
	d := l.recs.at(seq)
	return Record{
		Seq: seq, At: d.At, Kind: d.Kind, Code: d.Code,
		Actor: d.Actor, Subject: d.Subject, Note: d.Note,
		Prev: *l.prev(seq), Hash: *l.idx.leaf(seq),
	}
}

// Append seals one record and returns its sequence number.
func (l *Ledger) Append(d Draft) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.recs.n
	prev := *l.prev(seq)
	l.recs.push(d)
	l.idx.push(l.seal.seal(seq, &d, &prev))
	return seq
}

// AppendBatch seals the drafts in order under one lock acquisition and
// returns the sequence number of the first — the batched-sealing path
// for bulk producers. Beyond amortizing the mutex, it defers Merkle
// interior maintenance: leaves land in the index immediately, and the
// interior nodes they close are completed in bulk by the next reader
// that needs them (Checkpoint, Root, Proof, Verify, ...), off the
// sealing hot path. Every hash that comes out — record chain hashes,
// roots, proofs — is byte-identical to what looped Append produces;
// only when the interior work runs moves.
func (l *Ledger) AppendBatch(drafts []Draft) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.recs.n
	head := *l.prev(first)
	for i := range drafts {
		d := &drafts[i]
		head = l.seal.seal(l.recs.n, d, &head)
		l.recs.push(*d)
		l.idx.appendLeaf(head)
	}
	return first
}

// Record returns a copy of record seq.
func (l *Ledger) Record(seq uint64) (Record, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq >= l.recs.n {
		return Record{}, fmt.Errorf("ledger: record %d out of range (size %d)", seq, l.recs.n)
	}
	return l.record(seq), nil
}

// Records returns a copy of all records in order.
func (l *Ledger) Records() []Record {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Record, l.recs.n)
	for i := range out {
		out[i] = l.record(uint64(i))
	}
	return out
}

// Checkpoint returns the commitment to the current ledger state.
func (l *Ledger) Checkpoint() Checkpoint {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.flush()
	n := l.recs.n
	return Checkpoint{Size: n, Root: l.idx.rootAt(n), Head: *l.prev(n)}
}

// Root returns the Merkle root over all records.
func (l *Ledger) Root() [32]byte {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.flush()
	return l.idx.rootAt(l.recs.n)
}

// RootAt returns the Merkle root over the first n records. Historical
// roots stay computable because interior nodes never change.
func (l *Ledger) RootAt(n uint64) ([32]byte, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.flush()
	if n > l.recs.n {
		return [32]byte{}, fmt.Errorf("ledger: root size %d out of range (size %d)", n, l.recs.n)
	}
	return l.idx.rootAt(n), nil
}

// Proof returns the inclusion proof for record seq against the current
// root (Proof.Size records). Verify it with VerifyProof and the root
// from RootAt(Proof.Size) or a matching Checkpoint.
func (l *Ledger) Proof(seq uint64) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.flush()
	return l.idx.proof(seq, l.recs.n)
}

// ProofAt returns the inclusion proof for record seq against the root
// over the first n records.
func (l *Ledger) ProofAt(seq, n uint64) (Proof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.flush()
	if n > l.recs.n {
		return Proof{}, fmt.Errorf("ledger: proof size %d out of range (size %d)", n, l.recs.n)
	}
	return l.idx.proof(seq, n)
}

// ConsistencyProof returns the RFC 6962 consistency proof that the
// ledger prefix of n records extends the prefix of m records, m <= n <=
// Len(). A verifier holding the checkpoint roots for both sizes checks
// it with VerifyConsistency — no records and no replay required — so a
// tenant who anchored an earlier checkpoint externally can confirm the
// ledger only grew. Like historical roots, proofs for any past size
// pair stay computable because interior nodes never change.
func (l *Ledger) ConsistencyProof(m, n uint64) (ConsistencyProof, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.idx.flush()
	if n > l.recs.n {
		return ConsistencyProof{}, fmt.Errorf("ledger: consistency proof size %d out of range (size %d)", n, l.recs.n)
	}
	return l.idx.consistencyProof(m, n)
}

// Verify audits the whole ledger: every record's chain hash is
// recomputed from its stored fields, its position and the previous
// record's hash, and must equal its Merkle leaf; a Seq or Prev that
// Reconstruct was given out of line is reported at its record; and —
// for a deserialized ledger — the recomputed root and head must match
// the stored trailer, so a truncated, extended, or rewritten tail is
// caught even though each remaining link may be self-consistent. The
// first failure is reported as a *TamperError carrying the exact
// record index. The walk allocates the same few objects whatever the
// ledger's length.
func (l *Ledger) Verify() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	end := l.recs.n
	if l.mislinked != nil {
		end = l.mislinked.Index
	}
	digest := streamDigest{h: sha256.New(), buf: make([]byte, 0, 64)}
	for i := uint64(0); i < end; i++ {
		if digest.record(i, l.recs.at(i), l.prev(i)) != *l.idx.leaf(i) {
			return &TamperError{Index: i, Reason: "chain hash mismatch"}
		}
	}
	if l.mislinked != nil {
		return l.mislinked
	}
	if l.loaded != nil {
		if err := l.verifyAgainstLocked(*l.loaded); err != nil {
			return err
		}
	}
	return nil
}

// VerifyAgainst checks the ledger against a previously published
// checkpoint: the ledger must still contain at least cp.Size records,
// and the root and head over that prefix must match. A shrunk, spliced,
// or rewritten history fails here even if its remaining chain links are
// internally consistent.
func (l *Ledger) VerifyAgainst(cp Checkpoint) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.verifyAgainstLocked(cp)
}

func (l *Ledger) verifyAgainstLocked(cp Checkpoint) error {
	l.idx.flush()
	if n := l.recs.n; n < cp.Size {
		return &TamperError{Index: n, Reason: fmt.Sprintf("ledger truncated: %d records, checkpoint commits to %d", n, cp.Size)}
	}
	if got := l.idx.rootAt(cp.Size); got != cp.Root {
		return &TamperError{Index: cp.Size, Reason: "root mismatch against checkpoint"}
	}
	if cp.Size > 0 {
		if got := *l.idx.leaf(cp.Size - 1); got != cp.Head {
			return &TamperError{Index: cp.Size - 1, Reason: "head hash mismatch against checkpoint"}
		}
	}
	return nil
}

// Reconstruct builds a ledger from records taken verbatim: each Hash
// becomes the record's Merkle leaf as given. Seq and Prev are derived
// from position, so the first record whose given Seq or Prev disagrees
// with its position is noted and reported by Verify; Records gives the
// derived values, which the leaves commit to, and WriteTo refuses the
// ledger rather than write them. It is the deserialization core (Load
// uses it) and the seam adversarial tests use to construct tampered
// histories; Verify decides whether the result is authentic.
func Reconstruct(records []Record) *Ledger {
	l := New(WithCapacity(len(records)))
	for i := range records {
		r := &records[i]
		seq := uint64(i)
		if l.mislinked == nil {
			switch {
			case r.Seq != seq:
				l.mislinked = &TamperError{Index: seq, Reason: fmt.Sprintf("sequence %d out of order", r.Seq)}
			case r.Prev != *l.prev(seq):
				l.mislinked = &TamperError{Index: seq, Reason: "back-link mismatch"}
			}
		}
		l.recs.push(r.draft())
		l.idx.push(r.Hash)
	}
	return l
}
