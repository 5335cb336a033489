// Package wire is the JSON codec for the serving hot path. It
// carries exactly what lawgated moves per request: it decodes
// legal.Action bodies (DecodeAction, and DecodeActions for batches),
// encodes each ruling as its report.RulingView projection
// (AppendRulingViewFromRuling), and supplies the primitives the
// server's response envelopes are built from (AppendString, AppendInt,
// AppendUint, AppendBool) plus a pool of encode buffers. Its output and
// its decoded values match encoding/json exactly — the compatibility
// contract, checked by the differential fuzz in wire_test.go — while
// allocating only what the decoded values must own: encoders append
// into pooled buffers and allocate nothing at steady state, decoders
// run off a pooled scratch, and the only allocations left are the ones
// Go's aliasing rules force (each non-empty action name, and the fresh
// sub-objects and slices that outlive the request inside the engine's
// ruling cache).
//
// Byte-identity with encoding/json is a hard requirement, not a
// nicety: golden files, external clients, and the conformance probe
// all pin the stdlib rendering, so the encoder must reproduce stdlib
// field order, omitempty behavior, nil-vs-empty slice distinction,
// and string escaping (HTML-safe escapes for <, >, &; \u00xx for
// control characters with the \b \f \n \r \t shorthands; U+2028 and
// U+2029 escaped; invalid UTF-8 bytes replaced by �) exactly.
// Decoding matches encoding/json semantics for the inputs the server
// accepts: case-insensitive key matching, unknown fields skipped,
// null handling, duplicate keys merged, and [] decoding to a non-nil
// empty slice.
//
// Two byte-by-byte passes stay off the hot path. Object keys are
// matched in declaration order: each struct has one table of its
// member names in the order, and with the exact spelling, that
// json.Marshal writes them, and a key that spells the member after the
// last one decoded is matched with one comparison and dispatched on
// its field index. Any other key (another order or case, escapes,
// whitespace before the ':', unknown names) is parsed, folded and
// looked up in the same table, so it maps to the same field. On encode
// the doctrine vocabulary is escaped once: Process, Regime and
// ExceptionKind names come from tables built at init, and rationale
// lines and citation titles pass through a fixed-size escape memo keyed
// on their content. Action names are client-supplied and never enter
// the memo; they are escaped on every call. AppendRulingViewTail
// renders a ruling's view after its action name, which lets a batch
// envelope render each distinct tail once (internal/server/codec.go).
package wire

import "sync"

// maxRetainedBuf caps the capacity of a buffer returned to the pool, so
// one pathological response does not pin a huge backing array forever.
const maxRetainedBuf = 1 << 20

// Buffer is a pooled byte buffer for encoders. Callers append to B.
type Buffer struct {
	B []byte
}

var bufPool = sync.Pool{
	New: func() any { return &Buffer{B: make([]byte, 0, 4096)} },
}

// GetBuffer checks a buffer out of the pool. Pair with PutBuffer.
func GetBuffer() *Buffer {
	return bufPool.Get().(*Buffer)
}

// PutBuffer returns a buffer to the pool. The caller must not retain
// any slice of b.B afterwards.
func PutBuffer(b *Buffer) {
	if cap(b.B) > maxRetainedBuf {
		return
	}
	b.B = b.B[:0]
	bufPool.Put(b)
}
