package anonet

import (
	"bytes"
	"crypto/aes"
	"crypto/cipher"
	"encoding/binary"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"

	"lawgate/internal/netsim"
)

// differentialKey is the layer key the differential tests share.
var differentialKey = LayerKey([]byte("differential-key"))

// referenceLayer is applyLayer written against cipher.NewCTR: the
// standard library's CTR mode over the same AES key, started at the
// counter block GCM encrypts from, nonce‖be32(2).
func referenceLayer(t *testing.T, circ CircuitID, seq uint64, backward bool, data []byte) []byte {
	t.Helper()
	block, err := aes.NewCipher(differentialKey[:])
	if err != nil {
		t.Fatal(err)
	}
	dc := uint32(circ) &^ (1 << 31)
	if backward {
		dc |= 1 << 31
	}
	iv := make([]byte, aes.BlockSize)
	binary.BigEndian.PutUint32(iv[0:4], dc)
	binary.BigEndian.PutUint64(iv[4:12], seq)
	binary.BigEndian.PutUint32(iv[12:16], 2)
	out := make([]byte, len(data))
	cipher.NewCTR(block, iv).XORKeyStream(out, data)
	return out
}

// TestApplyLayerMatchesNewCTR checks applyLayer byte for byte against
// cipher.NewCTR for every length from 0 to 600 — empty, partial final
// blocks, whole blocks, and lengths past a cell's data capacity — in
// both directions, with circuit IDs and sequence numbers at their
// extremes, including a circuit ID whose top nonce bit the direction
// takes. Each case runs into a separate buffer and in place
// (dst == src), the way relays call it.
func TestApplyLayerMatchesNewCTR(t *testing.T) {
	layer, err := newLayer(differentialKey)
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
		{0, 0},
		{1, 1},
		{42, 1 << 40},
		{7, math.MaxUint64},
		{1<<31 - 1, math.MaxUint64 - 1},
		{1 << 31, 3}, // the direction bit's position in the nonce
		{math.MaxUint64, math.MaxUint64},
	}
	var sc layerScratch
	got := make([]byte, len(data))
	for _, c := range counters {
		for _, backward := range []bool{false, true} {
			for n := 0; n <= len(data); n++ {
				want := referenceLayer(t, c.circ, c.seq, backward, data[:n])
				applyLayer(layer, &sc, c.circ, c.seq, backward, got[:n], data[:n])
				if !bytes.Equal(got[:n], want) {
					t.Fatalf("circ=%#x seq=%#x backward=%v len=%d: applyLayer differs from cipher.NewCTR",
						uint64(c.circ), c.seq, backward, n)
				}
				copy(got, data[:n])
				applyLayer(layer, &sc, c.circ, c.seq, backward, got[:n], got[:n])
				if !bytes.Equal(got[:n], want) {
					t.Fatalf("circ=%#x seq=%#x backward=%v len=%d: in-place applyLayer differs from cipher.NewCTR",
						uint64(c.circ), c.seq, backward, n)
				}
			}
		}
	}
}

// TestConsecutiveCellsShareNoKeystreamBlock checks that cells seq and
// seq+1 of one circuit and direction, under one key, share no 16-byte
// keystream block at any offset. A counter that ran seq+j across a
// cell's blocks would reuse all but one block of the next cell's
// keystream, shifted by one block, and XORing the two ciphertexts at
// that shift would cancel the layer.
func TestConsecutiveCellsShareNoKeystreamBlock(t *testing.T) {
	layer, err := newLayer(differentialKey)
	if err != nil {
		t.Fatal(err)
	}
	var sc layerScratch
	zero := make([]byte, cellDataCap)
	keystream := func(circ CircuitID, seq uint64, backward bool) map[[aes.BlockSize]byte]bool {
		ks := make([]byte, cellDataCap)
		applyLayer(layer, &sc, circ, seq, backward, ks, zero)
		blocks := make(map[[aes.BlockSize]byte]bool)
		for off := 0; off+aes.BlockSize <= len(ks); off += aes.BlockSize {
			blocks[[aes.BlockSize]byte(ks[off:])] = true
		}
		return blocks
	}
	for _, circ := range []CircuitID{1, 1<<31 - 1, math.MaxUint64} {
		for _, seq := range []uint64{0, 1, 1 << 32, math.MaxUint64 - 1} {
			for _, backward := range []bool{false, true} {
				a, b := keystream(circ, seq, backward), keystream(circ, seq+1, backward)
				for blk := range a {
					if b[blk] {
						t.Fatalf("circ=%#x backward=%v: cells %d and %d share keystream block %x",
							uint64(circ), backward, seq, seq+1, blk)
					}
				}
			}
		}
	}
}

// TestBuildCircuitFailsUnderFIPSOnly runs itself again in a child
// process under GODEBUG=fips140=only, where cipher.NewGCM refuses
// caller-chosen nonces, and checks that BuildCircuit reports the
// refusal as an error instead of panicking.
func TestBuildCircuitFailsUnderFIPSOnly(t *testing.T) {
	if strings.Contains(os.Getenv("GODEBUG"), "fips140=only") {
		net := netsim.NewNetwork(netsim.NewSimulator(5))
		a := New(net)
		client, err := a.AddClient("c")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.AddRelay("r1"); err != nil {
			t.Fatal(err)
		}
		if err := net.Connect("c", "r1", netsim.Link{}); err != nil {
			t.Fatal(err)
		}
		if _, err := a.BuildCircuit(client, "r1"); err == nil {
			t.Fatal("BuildCircuit succeeded with caller-chosen nonces refused")
		}
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestBuildCircuitFailsUnderFIPSOnly$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), "GODEBUG=fips140=only")
	out, err := cmd.CombinedOutput()
	if err != nil || !bytes.Contains(out, []byte("--- PASS: TestBuildCircuitFailsUnderFIPSOnly")) {
		t.Fatalf("child under fips140=only: %v\n%s", err, out)
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
// at a middle relay: none but the packet the network takes (takeAllocs).
// The cell is rewritten in place and the relay re-sends the packet it
// was handed; the layer, its nonce and the flow name cost nothing per
// cell.
const relayForwardAllocs = 0 + takeAllocs

// exitWrapAllocs is the pinned allocation count of the exit wrapping
// one server reply into the circuit: the new cell, plus the packet the
// network takes (takeAllocs). The reply's packet carries it on.
const exitWrapAllocs = 1 + takeAllocs

// clientHandleAllocs is the pinned allocation count of the client
// peeling one backward cell: none, since every layer is peeled in place
// through the circuit's scratch.
const clientHandleAllocs = 0

// middleHop returns a function that hands the middle relay one full
// forward cell and runs the network dry, and the middle relay. The exit
// forgets the circuit, so delivering the forwarded cell there costs
// nothing and the work measured is the middle hop alone. Every call
// hands over the same packet, which the relay re-sends, so the call
// first restores the header and payload the entry sent it with. The
// cell is rewritten in place, so it alternates between two
// ciphertexts; its length never changes.
func middleHop(tb testing.TB) (func(), *Relay) {
	r := buildRig(tb, 21)
	middle, exit := r.relays[1], r.relays[2]
	delete(exit.routes, r.circ.ID)
	wire := newCell(r.circ.ID, 1, cellDataCap)
	copy(wire[cellHeaderLen:], bytes.Repeat([]byte{0xA5}, cellDataCap))
	hdr := netsim.Header{Src: "entry", Dst: "middle", Flow: flowFor(r.circ.ID), Proto: netsim.ProtoTCP}
	pkt := &netsim.Packet{}
	net, sim := r.a.Net(), r.a.Net().Sim()
	hop := func() {
		pkt.Header, pkt.Payload, pkt.Encrypted = hdr, wire, true
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
	// The exit re-sends the reply's packet with the new cell, so every
	// call first restores what the server sent.
	hdr := netsim.Header{Src: "webserver", Dst: "exit", Flow: flowFor(r.circ.ID), Proto: netsim.ProtoTCP}
	pkt := &netsim.Packet{}
	net, sim := r.a.Net(), r.a.Net().Sim()
	wrap := func() {
		pkt.Header, pkt.Payload, pkt.Encrypted = hdr, reply, false
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
