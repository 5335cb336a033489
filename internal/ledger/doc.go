// Package ledger is the tamper-evident audit spine of lawgate: an
// append-only, hash-chained ledger of typed binary records onto which
// every legal-event producer converges — custody events from the
// evidence locker, escalation/revocation/lapse events from capture
// monitors, authorization and execution events from the court, and
// hearing outcomes from the investigation case. One ordered, verifiable
// history replaces the per-package ad-hoc audit mechanisms, so the
// paper's core rule — unauthorized capture taints evidence — becomes
// cryptographically checkable instead of a bare taint flag.
//
// # Chain
//
// Every Record commits to its predecessor: the record's Hash is the
// SHA-256 of its canonical encoding, which includes the previous
// record's Hash (Prev). Mutating, reordering, or deleting any interior
// record breaks the chain at an identifiable index; Verify walks the
// chain and reports exactly where.
//
// # Checkpoint index
//
// Alongside the chain, the ledger maintains a Merkle checkpoint index
// (RFC 6962 tree shape) over the record hashes. Interior nodes of
// perfect subtrees are computed incrementally at append time and never
// change, so the index supports O(log n)-sized inclusion proofs
// (Proof/VerifyProof) and historical roots (RootAt) without rehashing
// history. A Checkpoint (size, root, head) is a portable commitment to
// the whole ledger; VerifyAgainst detects truncation or rewriting
// relative to a previously published checkpoint, which is how a wiped
// or rolled-back audit trail — the anti-forensics threat — is caught.
//
// # Performance
//
// The ledger stores per record only what the producer supplied (its
// 64-byte Draft): Seq is the record's position, Hash is its Merkle
// leaf, and Prev is the previous leaf, so none of them is stored
// twice. Drafts and every index level live in append-only stores of
// 4,096-element chunks that never copy sealed history; only the first
// chunk grows by doubling, so a short ledger stays small. The append
// path is allocation-free at steady state (the sealing scratch is
// reused), and with capacity preallocated (WithCapacity) it allocates
// nothing at all. AppendBatch amortizes locking and Merkle maintenance
// for bulk producers; see BENCH_ledger.json.
package ledger
