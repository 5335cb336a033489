package ledger

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
)

// Kind classifies which subsystem produced a record.
type Kind uint16

// Record kinds. Each producer package owns one or more kinds; the Code
// field carries the producer's own sub-classification (a
// evidence.CustodyEvent, a capture event code, a legal.Process level).
const (
	// KindCustody is a chain-of-custody event from the evidence locker.
	KindCustody Kind = iota + 1
	// KindCapture is a live-capture event from a capture.Monitor: the
	// base ruling, then escalations, consent revocations, exigency
	// lapses.
	KindCapture
	// KindAuthorization is issued legal process (court order, warrant).
	KindAuthorization
	// KindAuthorizationDenied is a denied application.
	KindAuthorizationDenied
	// KindExecution is the execution of issued process (a search).
	KindExecution
	// KindCaseEvent is an investigation-level event (a suppression
	// hearing outcome).
	KindCaseEvent
	// KindService is a ruling-service event from lawgated: tenant
	// provisioning, doctrine-table installs, served rulings, sealed
	// shutdown checkpoints (codes in internal/server).
	KindService
)

var kindNames = map[Kind]string{
	KindCustody:             "custody",
	KindCapture:             "capture",
	KindAuthorization:       "authorization",
	KindAuthorizationDenied: "authorization-denied",
	KindExecution:           "execution",
	KindCaseEvent:           "case-event",
	KindService:             "service",
}

// String returns the human-readable kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Valid reports whether k is a defined kind.
func (k Kind) Valid() bool {
	_, ok := kindNames[k]
	return ok
}

// Draft is the producer-supplied part of a record, before the ledger
// assigns its sequence number and seals it into the chain.
type Draft struct {
	// At is the event time in nanoseconds (wall or virtual).
	At int64
	// Kind classifies the producing subsystem.
	Kind Kind
	// Code is the producer's sub-classification.
	Code uint32
	// Actor names who acted (custodian, applicant, operator).
	Actor string
	// Subject names what was acted on (item ID, order serial, device).
	Subject string
	// Note is free-form detail (a delta encoding, a ruling summary).
	Note string
}

// Record is one sealed link of the ledger. All digests are raw
// [32]byte values — hex is a presentation concern, not a storage one.
type Record struct {
	// Seq is the ledger-assigned zero-based sequence number.
	Seq uint64
	// At is the event time in nanoseconds.
	At int64
	// Kind classifies the producing subsystem.
	Kind Kind
	// Code is the producer's sub-classification.
	Code uint32
	// Actor names who acted.
	Actor string
	// Subject names what was acted on.
	Subject string
	// Note is free-form detail.
	Note string
	// Prev is the previous record's Hash (zero for the first record).
	Prev [32]byte
	// Hash is the SHA-256 over the record's canonical encoding,
	// including Prev — the chain link.
	Hash [32]byte
}

// recordHeaderLen is the fixed-width prefix of a record's canonical
// encoding: seq(8) + at(8) + kind(2) + code(4).
const recordHeaderLen = 8 + 8 + 2 + 4

// maxFieldLen bounds a single string field in the canonical encoding;
// decode rejects anything larger, so a corrupted length prefix cannot
// drive a huge allocation.
const maxFieldLen = 1 << 20

// ErrMalformed is returned when serialized ledger bytes cannot be
// decoded structurally (independent of hash validity).
var ErrMalformed = errors.New("ledger: malformed serialized ledger")

// appendLenPrefixedString appends s framed by its 8-byte big-endian
// length: the framing of every variable-length field in a record body.
func appendLenPrefixedString(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint64(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendBody appends the canonical encoding of the record at position
// seq with producer fields d and back-link prev: everything the chain
// hash covers (fixed-width header, length-prefixed strings, Prev) but
// not Hash itself. The sealer hashes exactly these bytes; the
// serialized file format stores them verbatim.
func appendBody(dst []byte, seq uint64, d *Draft, prev *[32]byte) []byte {
	var hdr [recordHeaderLen]byte
	binary.BigEndian.PutUint64(hdr[0:8], seq)
	binary.BigEndian.PutUint64(hdr[8:16], uint64(d.At))
	binary.BigEndian.PutUint16(hdr[16:18], uint16(d.Kind))
	binary.BigEndian.PutUint32(hdr[18:22], d.Code)
	dst = append(dst, hdr[:]...)
	dst = appendLenPrefixedString(dst, d.Actor)
	dst = appendLenPrefixedString(dst, d.Subject)
	dst = appendLenPrefixedString(dst, d.Note)
	return append(dst, prev[:]...)
}

// draft returns the producer-supplied fields of r.
func (r *Record) draft() Draft {
	return Draft{At: r.At, Kind: r.Kind, Code: r.Code, Actor: r.Actor, Subject: r.Subject, Note: r.Note}
}

// AppendRecordBody appends r's canonical encoding (everything the chain
// hash covers: header, length-prefixed strings, Prev — but not Hash
// itself) to dst and returns the extended slice.
func AppendRecordBody(dst []byte, r *Record) []byte {
	d := r.draft()
	return appendBody(dst, r.Seq, &d, &r.Prev)
}

// sealer computes record chain hashes on the append paths: one-shot
// SHA-256 over the canonical body built in a reused buffer, so sealing
// allocates nothing at steady state.
type sealer struct {
	buf []byte
}

// seal returns the chain hash of the record at position seq with
// producer fields d and back-link prev.
func (s *sealer) seal(seq uint64, d *Draft, prev *[32]byte) [32]byte {
	s.buf = appendBody(s.buf[:0], seq, d, prev)
	return sha256.Sum256(s.buf)
}

// zeroHash is the back-link of the first record.
var zeroHash [32]byte

// streamDigest recomputes chain hashes for Verify by streaming each
// field through a hash.Hash, a length write then a bytes write — an
// encoder structured independently of the sealer's buffer, so any drift
// between the two breaks verification of even an honest ledger and is
// caught by every test that round-trips a chain. The digest and the
// scratch it frames fields in are reused, so a whole-ledger walk
// allocates a constant amount however long the ledger is.
type streamDigest struct {
	h   hash.Hash
	buf []byte
}

// field writes v framed by its 8-byte big-endian length.
func (s *streamDigest) field(v string) {
	s.buf = binary.BigEndian.AppendUint64(s.buf[:0], uint64(len(v)))
	s.h.Write(s.buf)
	s.buf = append(s.buf[:0], v...)
	s.h.Write(s.buf)
}

// record returns the chain hash of the record at position seq with
// producer fields d and back-link prev.
func (s *streamDigest) record(seq uint64, d *Draft, prev *[32]byte) [32]byte {
	s.h.Reset()
	s.buf = binary.BigEndian.AppendUint64(s.buf[:0], seq)
	s.buf = binary.BigEndian.AppendUint64(s.buf, uint64(d.At))
	s.buf = binary.BigEndian.AppendUint16(s.buf, uint16(d.Kind))
	s.buf = binary.BigEndian.AppendUint32(s.buf, d.Code)
	s.h.Write(s.buf)
	s.field(d.Actor)
	s.field(d.Subject)
	s.field(d.Note)
	s.h.Write(prev[:])
	s.buf = s.h.Sum(s.buf[:0])
	return [32]byte(s.buf)
}

// DecodeRecordBody decodes one canonical record body from data,
// returning the record (Hash left zero) and the number of bytes
// consumed. It is the inverse of AppendRecordBody.
func DecodeRecordBody(data []byte) (Record, int, error) {
	var r Record
	if len(data) < recordHeaderLen {
		return r, 0, fmt.Errorf("%w: short header", ErrMalformed)
	}
	r.Seq = binary.BigEndian.Uint64(data[0:8])
	r.At = int64(binary.BigEndian.Uint64(data[8:16]))
	r.Kind = Kind(binary.BigEndian.Uint16(data[16:18]))
	r.Code = binary.BigEndian.Uint32(data[18:22])
	off := recordHeaderLen
	for _, field := range []*string{&r.Actor, &r.Subject, &r.Note} {
		if len(data[off:]) < 8 {
			return r, 0, fmt.Errorf("%w: short field length at offset %d", ErrMalformed, off)
		}
		n := binary.BigEndian.Uint64(data[off : off+8])
		off += 8
		if n > maxFieldLen || uint64(len(data[off:])) < n {
			return r, 0, fmt.Errorf("%w: field length %d at offset %d", ErrMalformed, n, off)
		}
		*field = string(data[off : off+int(n)])
		off += int(n)
	}
	if len(data[off:]) < 32 {
		return r, 0, fmt.Errorf("%w: short prev hash at offset %d", ErrMalformed, off)
	}
	copy(r.Prev[:], data[off:off+32])
	off += 32
	return r, off, nil
}
