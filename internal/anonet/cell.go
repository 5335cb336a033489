// Package anonet implements the Section IV-B substrate: a Tor-like
// low-latency anonymity network with telescoped three-hop circuits and
// per-hop layered encryption (AES-CTR). Clients wrap traffic in one
// encryption layer per relay; each relay strips (or, on the return path,
// adds) exactly one layer, so no relay sees both endpoints and only the
// exit sees plaintext.
//
// The network exists to carry the paper's watermark-traceback experiment:
// law enforcement cannot read the suspect's circuit traffic (a Title III
// wiretap order would be required, and decryption would be useless without
// keys), but packet *rates* remain observable at the suspect's ISP — the
// non-content signal the internal/watermark package modulates and detects.
package anonet

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/subtle"
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

// marshal encodes the cell padded to CellSize. The header (circuit ID,
// sequence, length) stays in the clear, as in Tor: relays need it to
// route; it is addressing information, not content.
func (c cell) marshal() ([]byte, error) {
	if len(c.Data) > cellDataCap {
		return nil, fmt.Errorf("%w: %d > %d", ErrCellTooLarge, len(c.Data), cellDataCap)
	}
	buf := make([]byte, CellSize)
	binary.BigEndian.PutUint64(buf[0:8], uint64(c.Circ))
	binary.BigEndian.PutUint64(buf[8:16], c.Seq)
	binary.BigEndian.PutUint16(buf[16:18], uint16(len(c.Data)))
	copy(buf[cellHeaderLen:], c.Data)
	return buf, nil
}

// Cell parse errors, preallocated: a client sees every cross-traffic
// packet addressed to it, and rejecting one must not allocate.
var (
	errCellSize   = fmt.Errorf("%w: size is not %d", ErrBadCell, CellSize)
	errCellLength = fmt.Errorf("%w: length exceeds %d", ErrBadCell, cellDataCap)
)

// unmarshalCell parses a padded cell. Data aliases b: callers only ever
// pass it through applyLayer, which writes a fresh buffer.
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

// newLayer expands k into the hop's AES block cipher. Circuits build
// each hop's cipher once, at BuildCircuit, and reuse it for every cell.
func newLayer(k LayerKey) (cipher.Block, error) {
	block, err := aes.NewCipher(k[:])
	if err != nil {
		return nil, fmt.Errorf("anonet: cipher: %w", err)
	}
	return block, nil
}

// applyLayer applies one AES-CTR layer under block and returns the
// result in a fresh buffer. CTR is an involution under a fixed
// keystream, so the same call encrypts and decrypts. The initial counter
// binds circuit, sequence number, and direction so keystreams never
// repeat across cells or directions. The output is byte-identical to
// cipher.NewCTR over the same block and initial counter; the counter
// blocks are laid out and encrypted in place in the output's
// block-rounded backing array, so the call allocates only that array.
func applyLayer(block cipher.Block, circ CircuitID, seq uint64, backward bool, data []byte) []byte {
	hi := uint64(circ)
	if backward {
		hi ^= 0x80 << 56
	}
	lo := seq
	n := len(data)
	buf := make([]byte, (n+aes.BlockSize-1)/aes.BlockSize*aes.BlockSize)
	for off := 0; off < len(buf); off += aes.BlockSize {
		ks := buf[off : off+aes.BlockSize]
		binary.BigEndian.PutUint64(ks[0:8], hi)
		binary.BigEndian.PutUint64(ks[8:16], lo)
		block.Encrypt(ks, ks)
		// The counter is the whole 128-bit block, big-endian.
		lo++
		if lo == 0 {
			hi++
		}
	}
	subtle.XORBytes(buf, buf[:n], data)
	clear(buf[n:]) // drop the unused keystream tail
	return buf[:n]
}

// relayPayload is the innermost (exit-layer) plaintext of a forward cell:
// the destination the exit should forward to, plus the application data.
type relayPayload struct {
	Dst  string
	Data []byte
}

func (r relayPayload) marshal() ([]byte, error) {
	if len(r.Dst) > 255 {
		return nil, fmt.Errorf("%w: destination name too long", ErrBadCell)
	}
	out := make([]byte, 1+len(r.Dst)+len(r.Data))
	out[0] = byte(len(r.Dst))
	copy(out[1:], r.Dst)
	copy(out[1+len(r.Dst):], r.Data)
	return out, nil
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
