package ledger

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// magic identifies a serialized ledger, version 1.
var magic = [8]byte{'L', 'G', 'L', 'E', 'D', 'G', 'R', '1'}

// Serialized layout:
//
//	magic(8) count(8)
//	count × { record body (AppendRecordBody) hash(32) }
//	trailer: root(32) head(32)
//
// The trailer commits to the whole file: truncating records without
// recomputing it is caught by Verify, and an attacker who rewrites the
// trailer must still produce a consistent chain, which any retained
// Checkpoint then refutes.

// WriteTo serializes the ledger. It implements io.WriterTo. It writes
// each record's Seq and Prev as derived from its position, so a ledger
// whose given Seq or Prev disagreed with its position (see Reconstruct)
// is refused with that *TamperError and nothing is written: writing it
// would turn a file that fails Verify into one that passes.
func (l *Ledger) WriteTo(w io.Writer) (int64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.mislinked != nil {
		return 0, fmt.Errorf("ledger: refusing to serialize: %w", l.mislinked)
	}
	l.idx.flush()
	var total int64
	var buf []byte
	var hdr [16]byte
	copy(hdr[:8], magic[:])
	binary.BigEndian.PutUint64(hdr[8:], l.recs.n)
	n, err := w.Write(hdr[:])
	total += int64(n)
	if err != nil {
		return total, err
	}
	for i := uint64(0); i < l.recs.n; i++ {
		buf = appendBody(buf[:0], i, l.recs.at(i), l.prev(i))
		buf = append(buf, l.idx.leaf(i)[:]...)
		n, err = w.Write(buf)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	root := l.idx.rootAt(l.recs.n)
	head := l.prev(l.recs.n)
	buf = append(buf[:0], root[:]...)
	buf = append(buf, head[:]...)
	n, err = w.Write(buf)
	total += int64(n)
	return total, err
}

// Load deserializes a ledger from data. The structure is validated
// (lengths, counts) but hashes are NOT: the stored record hashes and
// trailer are loaded verbatim so that Verify can audit them and report
// exactly which record a tamperer touched. A Load that succeeds
// followed by a Verify that succeeds is the authenticity guarantee.
// Records of a loaded ledger carry Seq and Prev derived from position,
// not the fields as stored; a stored Seq or Prev that disagrees is
// what Verify reports, and WriteTo refuses such a ledger.
func Load(data []byte) (*Ledger, error) {
	if len(data) < 16 || !bytes.Equal(data[:8], magic[:]) {
		return nil, fmt.Errorf("%w: bad magic", ErrMalformed)
	}
	count := binary.BigEndian.Uint64(data[8:16])
	off := 16
	if count > uint64(len(data)) { // cheap bound: every record occupies >1 byte
		return nil, fmt.Errorf("%w: record count %d exceeds file size", ErrMalformed, count)
	}
	records := make([]Record, 0, count)
	for i := uint64(0); i < count; i++ {
		r, n, err := DecodeRecordBody(data[off:])
		if err != nil {
			return nil, fmt.Errorf("record %d: %w", i, err)
		}
		off += n
		if len(data[off:]) < 32 {
			return nil, fmt.Errorf("%w: record %d missing hash", ErrMalformed, i)
		}
		copy(r.Hash[:], data[off:off+32])
		off += 32
		records = append(records, r)
	}
	if len(data[off:]) < 64 {
		return nil, fmt.Errorf("%w: missing trailer", ErrMalformed)
	}
	var cp Checkpoint
	cp.Size = count
	copy(cp.Root[:], data[off:off+32])
	copy(cp.Head[:], data[off+32:off+64])
	if len(data[off+64:]) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrMalformed, len(data[off+64:]))
	}
	l := Reconstruct(records)
	l.loaded = &cp
	return l, nil
}

// LoadFile reads and deserializes path.
func LoadFile(path string) (*Ledger, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return Load(data)
}

// WriteFile serializes the ledger to path.
func (l *Ledger) WriteFile(path string) error {
	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}
