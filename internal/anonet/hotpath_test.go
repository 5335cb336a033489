package anonet

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"testing"

	"lawgate/internal/netsim"
)

// referenceLayer is applyLayer written against cipher.NewCTR: the
// standard library's CTR mode over the same block and initial counter.
func referenceLayer(block cipher.Block, circ CircuitID, seq uint64, backward bool, data []byte) []byte {
	iv := make([]byte, 16)
	binary.BigEndian.PutUint64(iv[0:8], uint64(circ))
	binary.BigEndian.PutUint64(iv[8:16], seq)
	if backward {
		iv[0] ^= 0x80
	}
	out := make([]byte, len(data))
	cipher.NewCTR(block, iv).XORKeyStream(out, data)
	return out
}

// TestApplyLayerMatchesNewCTR checks applyLayer byte for byte against
// cipher.NewCTR for every length from 0 to 600 — empty, partial final
// blocks and whole blocks — in both directions, including sequence
// numbers and circuit IDs at which the 128-bit counter carries from the
// low word into the high word and wraps around entirely.
func TestApplyLayerMatchesNewCTR(t *testing.T) {
	var k LayerKey
	copy(k[:], "differential-key")
	layer, err := newLayer(k)
	if err != nil {
		t.Fatal(err)
	}
	data := make([]byte, 600)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	counters := []struct {
		circ CircuitID
		seq  uint64
	}{
		{1, 1},
		{42, 1 << 40},
		{7, math.MaxUint64 - 3},              // carry into the circuit word mid-cell
		{7, math.MaxUint64},                  // carry after the first block
		{math.MaxUint64, math.MaxUint64 - 1}, // full 128-bit wrap
		{1 << 63, math.MaxUint64 - 20},       // backward flips the top bit
	}
	for _, c := range counters {
		for _, backward := range []bool{false, true} {
			for n := 0; n <= len(data); n++ {
				got := applyLayer(layer, c.circ, c.seq, backward, data[:n])
				want := referenceLayer(layer, c.circ, c.seq, backward, data[:n])
				if !bytes.Equal(got, want) {
					t.Fatalf("circ=%#x seq=%#x backward=%v len=%d: applyLayer differs from cipher.NewCTR",
						uint64(c.circ), c.seq, backward, n)
				}
			}
		}
	}
}

// TestUnmarshalCellRejectsWithoutAlloc pins the client's filter for
// cross traffic: a packet that is not a cell is rejected with no
// allocation.
func TestUnmarshalCellRejectsWithoutAlloc(t *testing.T) {
	notCell := make([]byte, 1200)
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := unmarshalCell(notCell); err == nil {
			t.Fatal("1200-byte packet parsed as a cell")
		}
	})
	if allocs != 0 {
		t.Errorf("rejecting a non-cell allocates %v times, want 0", allocs)
	}
}

// relayForwardAllocs is the pinned allocation count of one forward hop
// at a middle relay: the layer's output buffer, the marshalled cell and
// the outgoing packet. Cipher state, the flow name and the packet's
// hop list cost nothing per cell.
const relayForwardAllocs = 3

// TestRelayForwardAllocs pins Relay.handle on one forward cell at the
// middle relay to relayForwardAllocs allocations.
func TestRelayForwardAllocs(t *testing.T) {
	r := buildRig(t, 21)
	middle, exit := r.relays[1], r.relays[2]
	// The exit forgets the circuit, so delivering the forwarded cell
	// there costs nothing and the measurement is the middle hop alone.
	delete(exit.routes, r.circ.ID)
	wire, err := cell{Circ: r.circ.ID, Seq: 1, Data: bytes.Repeat([]byte{0xA5}, cellDataCap)}.marshal()
	if err != nil {
		t.Fatal(err)
	}
	pkt := &netsim.Packet{
		Header:    netsim.Header{Src: "entry", Dst: "middle", Flow: flowFor(r.circ.ID), Proto: netsim.ProtoTCP},
		Payload:   wire,
		Encrypted: true,
	}
	net, sim := r.a.Net(), r.a.Net().Sim()
	hop := func() {
		middle.handle(net, pkt)
		for sim.Step() {
		}
	}
	hop() // warm the event slab
	before := middle.Relayed
	allocs := testing.AllocsPerRun(1000, hop)
	if middle.Relayed == before {
		t.Fatal("middle relay forwarded nothing")
	}
	if allocs > relayForwardAllocs {
		t.Errorf("Relay.handle forward hop allocs/op = %v, want <= %d", allocs, relayForwardAllocs)
	}
}
