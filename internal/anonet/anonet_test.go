package anonet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lawgate/internal/netsim"
)

// rig is a complete client-entry-middle-exit-server topology.
type rig struct {
	a      *Anonet
	client *Client
	relays []*Relay
	server *Server
	circ   *Circuit
}

func buildRig(t testing.TB, seed int64) *rig {
	t.Helper()
	sim := netsim.NewSimulator(seed)
	net := netsim.NewNetwork(sim)
	a := New(net)
	client, err := a.AddClient("suspect")
	if err != nil {
		t.Fatal(err)
	}
	var relays []*Relay
	for _, id := range []netsim.NodeID{"entry", "middle", "exit"} {
		r, err := a.AddRelay(id)
		if err != nil {
			t.Fatal(err)
		}
		relays = append(relays, r)
	}
	server, err := a.AddServer("webserver")
	if err != nil {
		t.Fatal(err)
	}
	chain := []netsim.NodeID{"suspect", "entry", "middle", "exit", "webserver"}
	for i := 0; i+1 < len(chain); i++ {
		if err := net.Connect(chain[i], chain[i+1], netsim.Link{Latency: 5 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	circ, err := a.BuildCircuit(client, "entry", "middle", "exit")
	if err != nil {
		t.Fatal(err)
	}
	return &rig{a: a, client: client, relays: relays, server: server, circ: circ}
}

func TestEndToEndRequestResponse(t *testing.T) {
	r := buildRig(t, 1)
	var serverGot []byte
	r.server.OnRequest = func(from netsim.NodeID, flow netsim.FlowID, data []byte) {
		serverGot = append([]byte(nil), data...)
		if err := r.server.Reply(from, flow, []byte("RESPONSE-DATA")); err != nil {
			t.Errorf("Reply: %v", err)
		}
	}
	var clientGot []byte
	var gotCirc CircuitID
	r.client.OnData = func(circ CircuitID, data []byte, _ time.Duration) {
		gotCirc = circ
		clientGot = append([]byte(nil), data...)
	}
	if err := r.client.Send(r.circ, "webserver", []byte("GET /file")); err != nil {
		t.Fatal(err)
	}
	r.a.Net().Sim().Run()
	if string(serverGot) != "GET /file" {
		t.Errorf("server received %q", serverGot)
	}
	if string(clientGot) != "RESPONSE-DATA" {
		t.Errorf("client received %q", clientGot)
	}
	if gotCirc != r.circ.ID {
		t.Errorf("circuit = %d, want %d", gotCirc, r.circ.ID)
	}
}

func TestOnionLayersDifferPerHop(t *testing.T) {
	// Tap every link: the same cell must look different at every hop
	// (each relay strips a layer), and the payload must never appear in
	// the clear before the exit-to-server hop.
	r := buildRig(t, 2)
	secret := []byte("INCRIMINATING-REQUEST")
	captures := map[netsim.NodeID][][]byte{}
	for _, id := range []netsim.NodeID{"entry", "middle", "exit", "webserver"} {
		id := id
		if err := r.a.Net().AttachTap(id, tapFunc(func(d netsim.Direction, _ time.Duration, p *netsim.Packet) {
			if d == netsim.DirInbound {
				captures[id] = append(captures[id], append([]byte(nil), p.Payload...))
			}
		})); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.client.Send(r.circ, "webserver", secret); err != nil {
		t.Fatal(err)
	}
	r.a.Net().Sim().Run()

	for _, id := range []netsim.NodeID{"entry", "middle", "exit"} {
		if len(captures[id]) != 1 {
			t.Fatalf("%s captured %d packets", id, len(captures[id]))
		}
		if bytes.Contains(captures[id][0], secret) {
			t.Errorf("plaintext visible at %s", id)
		}
	}
	if !bytes.Contains(captures["webserver"][0], secret) {
		t.Error("exit-to-server hop must carry plaintext")
	}
	if bytes.Equal(captures["entry"][0], captures["middle"][0]) {
		t.Error("entry and middle must see different ciphertexts")
	}
	if bytes.Equal(captures["middle"][0], captures["exit"][0]) {
		t.Error("middle and exit must see different ciphertexts")
	}
}

func TestBackwardTrafficEncryptedTowardClient(t *testing.T) {
	r := buildRig(t, 3)
	response := []byte("SECRET-RESPONSE-PAYLOAD")
	r.server.OnRequest = func(from netsim.NodeID, flow netsim.FlowID, _ []byte) {
		_ = r.server.Reply(from, flow, response)
	}
	var atClient [][]byte
	if err := r.a.Net().AttachTap("suspect", tapFunc(func(d netsim.Direction, _ time.Duration, p *netsim.Packet) {
		if d == netsim.DirInbound {
			atClient = append(atClient, append([]byte(nil), p.Payload...))
		}
	})); err != nil {
		t.Fatal(err)
	}
	var decrypted []byte
	r.client.OnData = func(_ CircuitID, data []byte, _ time.Duration) { decrypted = data }
	if err := r.client.Send(r.circ, "webserver", []byte("req")); err != nil {
		t.Fatal(err)
	}
	r.a.Net().Sim().Run()
	if len(atClient) != 1 {
		t.Fatalf("client inbound packets = %d", len(atClient))
	}
	if bytes.Contains(atClient[0], response) {
		t.Error("response visible in the clear on the suspect's wire")
	}
	if !bytes.Equal(decrypted, response) {
		t.Errorf("client decrypted %q", decrypted)
	}
	if len(atClient[0]) != CellSize {
		t.Errorf("cell size on wire = %d, want %d", len(atClient[0]), CellSize)
	}
}

func TestMultipleCellsDistinctKeystreams(t *testing.T) {
	// Two identical requests must produce different ciphertexts on the
	// wire (per-sequence nonces), and both round trips must decrypt.
	r := buildRig(t, 4)
	responses := 0
	r.server.OnRequest = func(from netsim.NodeID, flow netsim.FlowID, data []byte) {
		_ = r.server.Reply(from, flow, data)
	}
	r.client.OnData = func(_ CircuitID, data []byte, _ time.Duration) {
		if string(data) == "same-request" {
			responses++
		}
	}
	var wire [][]byte
	if err := r.a.Net().AttachTap("entry", tapFunc(func(d netsim.Direction, _ time.Duration, p *netsim.Packet) {
		if d == netsim.DirInbound && p.Header.Src == "suspect" {
			wire = append(wire, append([]byte(nil), p.Payload...))
		}
	})); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := r.client.Send(r.circ, "webserver", []byte("same-request")); err != nil {
			t.Fatal(err)
		}
	}
	r.a.Net().Sim().Run()
	if responses != 2 {
		t.Errorf("round trips = %d, want 2", responses)
	}
	if len(wire) != 2 {
		t.Fatalf("wire captures = %d", len(wire))
	}
	if bytes.Equal(wire[0][cellHeaderLen:], wire[1][cellHeaderLen:]) {
		t.Error("identical plaintexts produced identical ciphertexts: nonce reuse")
	}
}

func TestBuildCircuitValidation(t *testing.T) {
	sim := netsim.NewSimulator(5)
	net := netsim.NewNetwork(sim)
	a := New(net)
	client, err := a.AddClient("c")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddRelay("r1"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BuildCircuit(nil, "r1"); !errors.Is(err, ErrBadCircuit) {
		t.Errorf("nil client err = %v", err)
	}
	if _, err := a.BuildCircuit(client); !errors.Is(err, ErrBadCircuit) {
		t.Errorf("no relays err = %v", err)
	}
	if _, err := a.BuildCircuit(client, "c"); !errors.Is(err, ErrBadCircuit) {
		t.Errorf("non-relay hop err = %v", err)
	}
	// Not linked.
	if _, err := a.BuildCircuit(client, "r1"); !errors.Is(err, ErrNotConnected) {
		t.Errorf("unlinked err = %v", err)
	}
	if err := net.Connect("c", "r1", netsim.Link{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BuildCircuit(client, "r1"); err != nil {
		t.Errorf("single-hop circuit: %v", err)
	}
}

func TestDuplicateRegistration(t *testing.T) {
	sim := netsim.NewSimulator(6)
	a := New(netsim.NewNetwork(sim))
	if _, err := a.AddClient("x"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddRelay("x"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("relay dup err = %v", err)
	}
	if _, err := a.AddServer("x"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("server dup err = %v", err)
	}
	if _, err := a.AddClient("x"); !errors.Is(err, ErrDuplicate) {
		t.Errorf("client dup err = %v", err)
	}
}

func TestSendValidation(t *testing.T) {
	r := buildRig(t, 7)
	// Unknown circuit.
	bogus := &Circuit{ID: 999, Hops: r.circ.Hops, layers: r.circ.layers}
	if err := r.client.Send(bogus, "webserver", []byte("x")); !errors.Is(err, ErrUnknownCircuit) {
		t.Errorf("unknown circuit err = %v", err)
	}
	// Oversized payload.
	big := make([]byte, CellSize)
	if err := r.client.Send(r.circ, "webserver", big); !errors.Is(err, ErrCellTooLarge) {
		t.Errorf("oversize err = %v", err)
	}
	if err := r.server.Reply("exit", flowFor(r.circ.ID), big); !errors.Is(err, ErrCellTooLarge) {
		t.Errorf("oversize reply err = %v", err)
	}
}

func TestCellMarshalRoundTrip(t *testing.T) {
	wire := newCell(77, 12345, len("payload"))
	copy(wire[cellHeaderLen:], "payload")
	if len(wire) != CellSize {
		t.Fatalf("wire size = %d", len(wire))
	}
	got, err := unmarshalCell(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got.Circ != 77 || got.Seq != 12345 || string(got.Data) != "payload" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := unmarshalCell(wire[:100]); !errors.Is(err, ErrBadCell) {
		t.Errorf("short cell err = %v", err)
	}
	// Corrupt length field.
	wire[16], wire[17] = 0xFF, 0xFF
	if _, err := unmarshalCell(wire); !errors.Is(err, ErrBadCell) {
		t.Errorf("bad length err = %v", err)
	}
}

func TestRelayPayloadRoundTrip(t *testing.T) {
	rp := relayPayload{Dst: "webserver", Data: []byte("hello")}
	b := make([]byte, 1+len(rp.Dst)+len(rp.Data))
	rp.put(b)
	got, err := unmarshalRelayPayload(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Dst != "webserver" || string(got.Data) != "hello" {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := unmarshalRelayPayload(nil); !errors.Is(err, ErrBadCell) {
		t.Errorf("empty err = %v", err)
	}
	if _, err := unmarshalRelayPayload([]byte{200, 'x'}); !errors.Is(err, ErrBadCell) {
		t.Errorf("truncated err = %v", err)
	}
}

func TestApplyLayerInvolution(t *testing.T) {
	var k LayerKey
	copy(k[:], "0123456789abcdef")
	layer, err := newLayer(k)
	if err != nil {
		t.Fatal(err)
	}
	plain := []byte("some data to protect")
	var sc layerScratch
	enc := make([]byte, len(plain))
	applyLayer(layer, &sc, 5, 9, false, enc, plain)
	if bytes.Equal(enc, plain) {
		t.Error("layer must change the data")
	}
	dec := make([]byte, len(enc))
	applyLayer(layer, &sc, 5, 9, false, dec, enc)
	if !bytes.Equal(dec, plain) {
		t.Error("applying the layer twice must restore the plaintext")
	}
	// Direction separates keystreams.
	back := make([]byte, len(plain))
	applyLayer(layer, &sc, 5, 9, true, back, plain)
	if bytes.Equal(back, enc) {
		t.Error("forward and backward keystreams must differ")
	}
}

func TestRelayedCounter(t *testing.T) {
	r := buildRig(t, 8)
	r.server.OnRequest = func(from netsim.NodeID, flow netsim.FlowID, data []byte) {
		_ = r.server.Reply(from, flow, data)
	}
	if err := r.client.Send(r.circ, "webserver", []byte("x")); err != nil {
		t.Fatal(err)
	}
	r.a.Net().Sim().Run()
	for _, relay := range r.relays {
		if relay.Relayed != 2 { // one forward, one backward
			t.Errorf("relay %s Relayed = %d, want 2", relay.ID, relay.Relayed)
		}
	}
}

type tapFunc func(netsim.Direction, time.Duration, *netsim.Packet)

func (f tapFunc) Observe(d netsim.Direction, at time.Duration, p *netsim.Packet) { f(d, at, p) }

func TestCloseCircuit(t *testing.T) {
	r := buildRig(t, 9)
	delivered := 0
	r.server.OnRequest = func(netsim.NodeID, netsim.FlowID, []byte) { delivered++ }
	if err := r.client.Send(r.circ, "webserver", []byte("before")); err != nil {
		t.Fatal(err)
	}
	r.a.Net().Sim().Run()
	if delivered != 1 {
		t.Fatalf("pre-teardown delivered = %d", delivered)
	}
	if err := r.a.CloseCircuit(r.client, r.circ); err != nil {
		t.Fatal(err)
	}
	// Sending on a closed circuit fails at the client.
	if err := r.client.Send(r.circ, "webserver", []byte("after")); !errors.Is(err, ErrUnknownCircuit) {
		t.Errorf("closed-circuit send err = %v", err)
	}
	// Double close fails.
	if err := r.a.CloseCircuit(r.client, r.circ); !errors.Is(err, ErrUnknownCircuit) {
		t.Errorf("double close err = %v", err)
	}
}

func TestCloseCircuitDropsInFlight(t *testing.T) {
	r := buildRig(t, 10)
	delivered := 0
	r.server.OnRequest = func(netsim.NodeID, netsim.FlowID, []byte) { delivered++ }
	if err := r.client.Send(r.circ, "webserver", []byte("doomed")); err != nil {
		t.Fatal(err)
	}
	// Tear down while the cell is still crossing the first link.
	if err := r.a.CloseCircuit(r.client, r.circ); err != nil {
		t.Fatal(err)
	}
	r.a.Net().Sim().Run()
	if delivered != 0 {
		t.Errorf("in-flight cell survived teardown: delivered = %d", delivered)
	}
}
