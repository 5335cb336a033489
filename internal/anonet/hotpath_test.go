package anonet

import (
	"bytes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"testing"
	"time"

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
// low word into the high word and wraps around entirely. Each case runs
// into a separate buffer and in place (dst == src), the way relays call
// it.
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
	var iv counterBlock
	got := make([]byte, len(data))
	for _, c := range counters {
		for _, backward := range []bool{false, true} {
			for n := 0; n <= len(data); n++ {
				want := referenceLayer(layer, c.circ, c.seq, backward, data[:n])
				applyLayer(layer, &iv, c.circ, c.seq, backward, got[:n], data[:n])
				if !bytes.Equal(got[:n], want) {
					t.Fatalf("circ=%#x seq=%#x backward=%v len=%d: applyLayer differs from cipher.NewCTR",
						uint64(c.circ), c.seq, backward, n)
				}
				copy(got, data[:n])
				applyLayer(layer, &iv, c.circ, c.seq, backward, got[:n], got[:n])
				if !bytes.Equal(got[:n], want) {
					t.Fatalf("circ=%#x seq=%#x backward=%v len=%d: in-place applyLayer differs from cipher.NewCTR",
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
// at a middle relay: the layer's CTR state (a copy of the expanded key)
// and the outgoing packet. The cell is rewritten in place; cipher
// setup, the counter block, the flow name and the packet's hop list
// cost nothing per cell.
const relayForwardAllocs = 2

// exitWrapAllocs is the pinned allocation count of the exit wrapping
// one server reply into the circuit: the new cell, the CTR state and
// the packet.
const exitWrapAllocs = 3

// clientHandleAllocs is the pinned allocation count of the client
// peeling one backward cell: one CTR state per hop, and no output
// buffer.
const clientHandleAllocs = 3

// middleHop returns a function that hands the middle relay one full
// forward cell and runs the network dry, and the middle relay. The exit
// forgets the circuit, so delivering the forwarded cell there costs
// nothing and the work measured is the middle hop alone. Every call
// rewrites the same cell in place, so it alternates between two
// ciphertexts; its length never changes.
func middleHop(tb testing.TB) (func(), *Relay) {
	r := buildRig(tb, 21)
	middle, exit := r.relays[1], r.relays[2]
	delete(exit.routes, r.circ.ID)
	wire := newCell(r.circ.ID, 1, cellDataCap)
	copy(wire[cellHeaderLen:], bytes.Repeat([]byte{0xA5}, cellDataCap))
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
	return hop, middle
}

// TestRelayForwardAllocs pins Relay.handle on one forward cell at the
// middle relay to relayForwardAllocs allocations.
func TestRelayForwardAllocs(t *testing.T) {
	hop, middle := middleHop(t)
	before := middle.Relayed
	allocs := testing.AllocsPerRun(1000, hop)
	if middle.Relayed == before {
		t.Fatal("middle relay forwarded nothing")
	}
	if allocs > relayForwardAllocs {
		t.Errorf("Relay.handle forward hop allocs/op = %v, want <= %d", allocs, relayForwardAllocs)
	}
}

// BenchmarkRelayForward measures one forward hop at a middle relay:
// a full cell rewritten in place and sent on to the exit.
func BenchmarkRelayForward(b *testing.B) {
	hop, _ := middleHop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hop()
	}
}

// TestExitWrapAllocs pins the exit wrapping one server reply into the
// circuit to exitWrapAllocs allocations, and checks the reply buffer,
// which a server may share across replies, is left as it was.
func TestExitWrapAllocs(t *testing.T) {
	r := buildRig(t, 22)
	exit, middle := r.relays[2], r.relays[1]
	// The middle forgets the circuit, so the wrapped cell is dropped on
	// arrival and the work measured is the exit's alone.
	delete(middle.routes, r.circ.ID)
	reply := bytes.Repeat([]byte{0x5A}, 400)
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "webserver", Dst: "exit", Flow: flowFor(r.circ.ID), Proto: netsim.ProtoTCP},
		Payload: reply,
	}
	net, sim := r.a.Net(), r.a.Net().Sim()
	wrap := func() {
		exit.handle(net, pkt)
		for sim.Step() {
		}
	}
	wrap() // warm the event slab
	before := exit.Relayed
	allocs := testing.AllocsPerRun(1000, wrap)
	if exit.Relayed == before {
		t.Fatal("exit wrapped nothing")
	}
	if allocs > exitWrapAllocs {
		t.Errorf("exit backward wrap allocs/op = %v, want <= %d", allocs, exitWrapAllocs)
	}
	if !bytes.Equal(reply, bytes.Repeat([]byte{0x5A}, 400)) {
		t.Error("the exit rewrote the server's reply buffer")
	}
}

// TestClientHandleAllocs pins the client peeling one backward cell to
// clientHandleAllocs allocations.
func TestClientHandleAllocs(t *testing.T) {
	r := buildRig(t, 23)
	wire := newCell(r.circ.ID, 1, 400)
	pkt := &netsim.Packet{
		Header:    netsim.Header{Src: "entry", Dst: "suspect", Flow: flowFor(r.circ.ID), Proto: netsim.ProtoTCP},
		Payload:   wire,
		Encrypted: true,
	}
	got := 0
	r.client.OnData = func(_ CircuitID, data []byte, _ time.Duration) {
		if len(data) == 400 {
			got++
		}
	}
	net := r.a.Net()
	allocs := testing.AllocsPerRun(1000, func() { r.client.handle(net, pkt) })
	if got == 0 {
		t.Fatal("client delivered nothing")
	}
	if allocs > clientHandleAllocs {
		t.Errorf("Client.handle allocs/op = %v, want <= %d", allocs, clientHandleAllocs)
	}
}
