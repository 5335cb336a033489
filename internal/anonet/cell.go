// Package anonet implements the Section IV-B substrate: a Tor-like
// low-latency anonymity network with telescoped three-hop circuits and
// per-hop layered encryption (AES-CTR, taken from AES-GCM's encryption
// so a layer allocates nothing). Clients wrap traffic in one encryption
// layer per relay; each relay strips (or, on the return path, adds)
// exactly one layer, so no relay sees both endpoints and only the exit
// sees plaintext.
//
// The network exists to carry the paper's watermark-traceback experiment:
// law enforcement cannot read the suspect's circuit traffic (a Title III
// wiretap order would be required, and decryption would be useless without
// keys), but packet *rates* remain observable at the suspect's ISP — the
// non-content signal the internal/watermark package modulates and detects.
//
// Cell buffers are created only by anonet (the client's forward cells,
// the exit's backward ones), so a relay may rewrite the cell it is
// handed in place and re-send it in the very packet that carried it:
// the packet is the relay's until its handler returns, Send transmits a
// copy, and each fault-injected duplicate carries a payload of its own
// (see netsim.Handler).
package anonet

import (
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"errors"
	"fmt"
)

// CellSize is the fixed on-wire cell size, mimicking Tor's padded cells.
const CellSize = 512

// cellDataCap is the usable data capacity of one cell.
const cellDataCap = CellSize - cellHeaderLen

const cellHeaderLen = 8 + 8 + 2 // circID + seq + length

// Cell errors.
var (
	// ErrCellTooLarge: payload exceeds cell capacity.
	ErrCellTooLarge = errors.New("anonet: payload exceeds cell capacity")
	// ErrBadCell: a cell failed to parse.
	ErrBadCell = errors.New("anonet: malformed cell")
)

// CircuitID identifies a circuit network-wide.
type CircuitID uint64

// cell is the unit of circuit transmission.
type cell struct {
	Circ CircuitID
	Seq  uint64
	Data []byte // plaintext or onion-encrypted; length ≤ cellDataCap
}

// newCell returns a zeroed CellSize buffer whose header names circ, seq
// and n data bytes; the caller writes the data at
// [cellHeaderLen, cellHeaderLen+n), n ≤ cellDataCap. The header stays in
// the clear, as in Tor: relays need it to route; it is addressing
// information, not content.
func newCell(circ CircuitID, seq uint64, n int) []byte {
	buf := make([]byte, CellSize)
	binary.BigEndian.PutUint64(buf[0:8], uint64(circ))
	binary.BigEndian.PutUint64(buf[8:16], seq)
	binary.BigEndian.PutUint16(buf[16:18], uint16(n))
	return buf
}

// Cell parse errors, preallocated: a client sees every cross-traffic
// packet addressed to it, and rejecting one must not allocate.
var (
	errCellSize   = fmt.Errorf("%w: size is not %d", ErrBadCell, CellSize)
	errCellLength = fmt.Errorf("%w: length exceeds %d", ErrBadCell, cellDataCap)
)

// unmarshalCell parses a padded cell. Data aliases b, so a layer applied
// to it in place rewrites the cell.
func unmarshalCell(b []byte) (cell, error) {
	if len(b) != CellSize {
		return cell{}, errCellSize
	}
	n := binary.BigEndian.Uint16(b[16:18])
	if int(n) > cellDataCap {
		return cell{}, errCellLength
	}
	return cell{
		Circ: CircuitID(binary.BigEndian.Uint64(b[0:8])),
		Seq:  binary.BigEndian.Uint64(b[8:16]),
		Data: b[cellHeaderLen : cellHeaderLen+int(n)],
	}, nil
}

// LayerKey is one hop's symmetric key.
type LayerKey [16]byte

// newLayer expands k into the hop's AES-GCM cipher, whose encryption is
// the AES-CTR keystream applyLayer uses. Circuits build each hop's
// cipher once, at BuildCircuit, and reuse it for every cell. A build
// that refuses caller-chosen nonces (GODEBUG=fips140=only) fails here.
func newLayer(k LayerKey) (cipher.AEAD, error) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("anonet: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("anonet: cipher: %w", err)
	}
	return aead, nil
}

// layerScratch is applyLayer's working space. Circuits and routes each
// keep one: a nonce on the stack would escape through the AEAD
// interface and cost an allocation per layer.
type layerScratch struct {
	nonce [12]byte
	out   [cellDataCap + 16]byte // a full cell's sealed data and GCM's 16-byte tag
}

// applyLayer XORs one AES-CTR layer under aead over src into dst, which
// may be src itself. CTR is an involution under a fixed keystream, so
// the same call encrypts and decrypts. GCM encrypts by AES-CTR from the
// counter block nonce‖be32(2), so applyLayer seals src into sc.out,
// keeps the first len(src) bytes and drops the tag. The nonce binds
// direction and circuit (the top bit and low 31 bits of its first
// word) and the cell's sequence number (its last eight bytes), so a
// cell's blocks run counters 2..33 under a nonce of their own and no
// two cells or directions under one key share a keystream block. The
// call does no key expansion, allocates nothing, and runs the keystream
// eight blocks at a time.
func applyLayer(aead cipher.AEAD, sc *layerScratch, circ CircuitID, seq uint64, backward bool, dst, src []byte) {
	dc := uint32(circ) &^ (1 << 31)
	if backward {
		dc |= 1 << 31
	}
	binary.BigEndian.PutUint32(sc.nonce[0:4], dc)
	binary.BigEndian.PutUint64(sc.nonce[4:12], seq)
	copy(dst, aead.Seal(sc.out[:0], sc.nonce[:], src, nil)[:len(src)])
}

// relayPayload is the innermost (exit-layer) plaintext of a forward cell:
// the destination the exit should forward to, plus the application data.
type relayPayload struct {
	Dst  string
	Data []byte
}

// put encodes the payload into b: a one-byte length, the destination
// (at most 255 bytes), then the data.
func (r relayPayload) put(b []byte) {
	b[0] = byte(len(r.Dst))
	copy(b[1:], r.Dst)
	copy(b[1+len(r.Dst):], r.Data)
}

func unmarshalRelayPayload(b []byte) (relayPayload, error) {
	if len(b) < 1 {
		return relayPayload{}, fmt.Errorf("%w: empty relay payload", ErrBadCell)
	}
	n := int(b[0])
	if len(b) < 1+n {
		return relayPayload{}, fmt.Errorf("%w: truncated destination", ErrBadCell)
	}
	return relayPayload{
		Dst:  string(b[1 : 1+n]),
		Data: append([]byte(nil), b[1+n:]...),
	}, nil
}
