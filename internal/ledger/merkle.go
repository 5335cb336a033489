package ledger

import (
	"crypto/sha256"
	"fmt"
	"math/bits"
)

// index is the ledger's Merkle checkpoint index: an RFC 6962-shaped
// binary tree over the record chain hashes. levels[0] holds the leaves
// (record hashes); node j of levels[h] is the interior hash over leaves
// [j<<h, (j+1)<<h) and is computed exactly once, when that perfect
// subtree completes. Nodes never change after creation, so historical
// roots and proofs for any past size remain computable.
type index struct {
	levels []chunked[[32]byte]
	// indexed counts the leaves whose interior-node completion has run.
	// The eager append path keeps it equal to the leaf count; the batch
	// append path lands leaves without completing subtrees and lets the
	// next reader flush the gap, so batch sealing pays only the chain
	// hash and the interior work is amortized across the batch.
	indexed uint64
}

// interiorPrefix domain-separates interior nodes from leaves.
const interiorPrefix = 0x01

// interiorHash returns the parent of two child digests. Its input lives
// on the stack and SHA-256 runs one-shot, so it allocates nothing; the
// index and the stateless proof verifiers share it.
func interiorHash(l, r *[32]byte) [32]byte {
	var b [1 + 2*sha256.Size]byte
	b[0] = interiorPrefix
	copy(b[1:], l[:])
	copy(b[1+sha256.Size:], r[:])
	return sha256.Sum256(b[:])
}

// reserve preallocates every level for n leaves: level h of a tree
// over n leaves holds n>>h nodes.
func (x *index) reserve(n uint64) {
	x.levels = make([]chunked[[32]byte], bits.Len64(n))
	for h := range x.levels {
		x.levels[h].reserve(n >> h)
	}
}

// node returns node j of level h, which must exist.
func (x *index) node(h int, j uint64) *[32]byte { return x.levels[h].at(j) }

// leaf returns leaf i, which must exist.
func (x *index) leaf(i uint64) *[32]byte { return x.levels[0].at(i) }

// appendLeaf stores one leaf without completing subtrees — the batch
// sealing path. Interior nodes the leaf closes are deferred until the
// next flush; until then only levels[0] reflects the leaf.
func (x *index) appendLeaf(leaf [32]byte) {
	if len(x.levels) == 0 {
		x.levels = append(x.levels, chunked[[32]byte]{})
	}
	x.levels[0].push(leaf)
}

// completeLeaf closes every perfect subtree whose final leaf is leaf i
// — the amortized one-interior-hash-per-leaf maintenance step. Leaves
// must be completed in order; flush guarantees that.
func (x *index) completeLeaf(i uint64) {
	for h := 0; ; h++ {
		n := (i + 1) >> h
		if n%2 != 0 {
			return
		}
		if len(x.levels) == h+1 {
			x.levels = append(x.levels, chunked[[32]byte]{})
		}
		x.levels[h+1].push(interiorHash(x.node(h, n-2), x.node(h, n-1)))
	}
}

// flush completes every deferred subtree, bringing the interior levels
// up to date with the appended leaves. Interior nodes come out
// identical to eager maintenance — only their computation time moves —
// so roots and proofs are unaffected by which append path ran. Called
// by every reader that consults the index above its leaves.
func (x *index) flush() {
	if len(x.levels) == 0 {
		return
	}
	for n := x.levels[0].n; x.indexed < n; x.indexed++ {
		x.completeLeaf(x.indexed)
	}
}

// push appends one leaf and completes every perfect subtree up through
// it — the eager path used by single-record appends. It flushes first,
// so eager and batch appends interleave safely.
func (x *index) push(leaf [32]byte) {
	x.appendLeaf(leaf)
	x.flush()
}

// emptyRoot is the root of a zero-record ledger: SHA-256 of the empty
// string, per RFC 6962's MTH({}).
func emptyRoot() [32]byte {
	return sha256.Sum256(nil)
}

// rangeHash returns the subtree hash over leaves [a, b). The recursion
// only ever descends into the right, non-perfect part of a range; every
// left part is a stored perfect aligned subtree, so the cost is
// O(log n) lookups and hashes.
func (x *index) rangeHash(a, b uint64) [32]byte {
	n := b - a
	if n&(n-1) == 0 && a%n == 0 {
		h := bits.TrailingZeros64(n)
		return *x.node(h, a>>h)
	}
	k := uint64(1) << (bits.Len64(n-1) - 1) // largest power of two < n
	l := x.rangeHash(a, a+k)
	r := x.rangeHash(a+k, b)
	return interiorHash(&l, &r)
}

// rootAt returns the tree root over the first n leaves.
func (x *index) rootAt(n uint64) [32]byte {
	if n == 0 {
		return emptyRoot()
	}
	return x.rangeHash(0, n)
}

// Proof is an inclusion proof: the sibling path from record Index up to
// the root of the tree over the first Size records, deepest sibling
// first. Its length is O(log Size).
type Proof struct {
	// Index is the proven record's sequence number.
	Index uint64
	// Size is the ledger size (record count) the proof targets; verify
	// it against the root at exactly this size.
	Size uint64
	// Path holds the sibling digests, leaf level first.
	Path [][32]byte
}

// authPath appends the sibling hashes for idx within the tree over
// leaves [a, b), deepest first.
func (x *index) authPath(idx, a, b uint64, out [][32]byte) [][32]byte {
	if b-a <= 1 {
		return out
	}
	k := uint64(1) << (bits.Len64(b-a-1) - 1)
	if idx < a+k {
		out = x.authPath(idx, a, a+k, out)
		return append(out, x.rangeHash(a+k, b))
	}
	out = x.authPath(idx, a+k, b, out)
	return append(out, x.rangeHash(a, a+k))
}

// proof builds the inclusion proof for leaf idx in the tree of size n.
func (x *index) proof(idx, n uint64) (Proof, error) {
	if idx >= n {
		return Proof{}, fmt.Errorf("ledger: proof index %d out of range (size %d)", idx, n)
	}
	return Proof{Index: idx, Size: n, Path: x.authPath(idx, 0, n, nil)}, nil
}

// ConsistencyProof proves that the ledger of NewSize records is an
// append-only extension of the ledger of OldSize records: the RFC 6962
// § 2.1.2 Merkle consistency proof. A verifier holding the two
// checkpoint roots needs only the O(log n) Path — no records, no
// replay — to conclude that nothing committed at OldSize was later
// rewritten or reordered.
type ConsistencyProof struct {
	// OldSize and NewSize are the two committed record counts,
	// OldSize <= NewSize.
	OldSize, NewSize uint64
	// Path holds the node digests of the proof, in RFC 6962 order.
	Path [][32]byte
}

// consistency appends the RFC 6962 SUBPROOF(m, D[a:b], complete) node
// hashes for proving that the tree over the first m leaves of the range
// [a, b) is a prefix of the tree over the whole range. complete records
// whether the subtree root over the first m leaves is already known to
// the verifier (true only on the unbroken left spine from the root).
func (x *index) consistency(m, a, b uint64, complete bool, out [][32]byte) [][32]byte {
	n := b - a
	if m == n {
		if complete {
			return out
		}
		return append(out, x.rangeHash(a, b))
	}
	k := uint64(1) << (bits.Len64(n-1) - 1) // largest power of two < n
	if m <= k {
		out = x.consistency(m, a, a+k, complete, out)
		return append(out, x.rangeHash(a+k, b))
	}
	out = x.consistency(m-k, a+k, b, false, out)
	return append(out, x.rangeHash(a, a+k))
}

// consistencyProof builds the proof that the tree of size n extends the
// tree of size m.
func (x *index) consistencyProof(m, n uint64) (ConsistencyProof, error) {
	if m > n {
		return ConsistencyProof{}, fmt.Errorf("ledger: consistency proof sizes %d > %d", m, n)
	}
	p := ConsistencyProof{OldSize: m, NewSize: n}
	if m == n || m == 0 {
		// Equal sizes need no path (equal roots decide); size zero is
		// extended by everything (the empty-string root decides).
		return p, nil
	}
	p.Path = x.consistency(m, 0, n, true, nil)
	return p, nil
}

// VerifyConsistency reports whether p proves that the ledger whose root
// over p.NewSize records is newRoot extends the ledger whose root over
// p.OldSize records was oldRoot (the RFC 6962 § 2.1.4.2 check). It
// needs no ledger state: the verifier holds only the two published
// checkpoint roots and the proof.
func VerifyConsistency(p ConsistencyProof, oldRoot, newRoot [32]byte) bool {
	m, n := p.OldSize, p.NewSize
	if m > n {
		return false
	}
	if m == n {
		return len(p.Path) == 0 && oldRoot == newRoot
	}
	if m == 0 {
		return len(p.Path) == 0 && oldRoot == emptyRoot()
	}
	path := p.Path
	// When m is an exact power of two, the old root itself is the first
	// node of the recomputation; otherwise the proof carries it.
	fr, sr := oldRoot, oldRoot
	if m&(m-1) != 0 {
		if len(path) == 0 {
			return false
		}
		fr, sr = path[0], path[0]
		path = path[1:]
	}
	fn, sn := m-1, n-1
	for fn%2 == 1 {
		fn >>= 1
		sn >>= 1
	}
	for _, c := range path {
		if sn == 0 {
			return false
		}
		switch {
		case fn%2 == 1 || fn == sn:
			fr = interiorHash(&c, &fr)
			sr = interiorHash(&c, &sr)
			for fn != 0 && fn%2 == 0 {
				fn >>= 1
				sn >>= 1
			}
		default:
			sr = interiorHash(&sr, &c)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && fr == oldRoot && sr == newRoot
}

// VerifyProof reports whether p proves that the record whose chain hash
// is leaf sits at p.Index in the ledger whose root over the first
// p.Size records is root (the RFC 6962 audit-path check). It needs no
// ledger state: the verifier holds only the record (re-hashable to
// leaf), the proof, and a trusted root.
func VerifyProof(leaf [32]byte, p Proof, root [32]byte) bool {
	if p.Index >= p.Size {
		return false
	}
	fn, sn := p.Index, p.Size-1
	r := leaf
	for _, sib := range p.Path {
		if sn == 0 {
			return false
		}
		if fn%2 == 1 || fn == sn {
			r = interiorHash(&sib, &r)
			if fn%2 == 0 {
				for fn%2 == 0 && fn != 0 {
					fn >>= 1
					sn >>= 1
				}
			}
		} else {
			r = interiorHash(&r, &sib)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}
