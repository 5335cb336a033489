package anonet

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"lawgate/internal/capture"
	"lawgate/internal/faults"
	"lawgate/internal/legal"
	"lawgate/internal/netsim"
)

// TestDuplicatedCellsDecryptAlike runs a round trip under a fault plan
// that duplicates every transmission. Relays rewrite the cells they are
// handed in place, so each duplicate must be a copy of its own: every
// request copy reaches the server as sent, and every reply copy decrypts
// to the same plaintext at the client.
func TestDuplicatedCellsDecryptAlike(t *testing.T) {
	r := buildRig(t, 31)
	net := r.a.Net()
	fh, err := faults.NewPartitioned(faults.Plan{Duplicate: 1, DuplicateLag: time.Millisecond}, 31, net.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetFaults(fh); err != nil {
		t.Fatal(err)
	}
	request, reply := []byte("GET /evidence"), []byte("REPLY-PLAINTEXT")
	requests := 0
	r.server.OnRequest = func(from netsim.NodeID, flow netsim.FlowID, data []byte) {
		requests++
		if !bytes.Equal(data, request) {
			t.Errorf("server received %q, want %q", data, request)
		}
		if err := r.server.Reply(from, flow, reply); err != nil {
			t.Errorf("Reply: %v", err)
		}
	}
	replies := 0
	r.client.OnData = func(_ CircuitID, data []byte, _ time.Duration) {
		replies++
		if !bytes.Equal(data, reply) {
			t.Errorf("client decrypted %q, want %q", data, reply)
		}
	}
	if err := r.client.Send(r.circ, "webserver", request); err != nil {
		t.Fatal(err)
	}
	net.Sim().Run()
	// Four links each way, every transmission doubled.
	if requests != 16 || replies != 256 {
		t.Errorf("requests = %d, replies = %d; want 16 and 256", requests, replies)
	}
	if net.Duplicated == 0 {
		t.Error("the fault plan duplicated nothing")
	}
}

// TestWiretapSeesCellBeforeRewrite arms a full wiretap on the middle
// relay's inbound side: it must record the cell exactly as the entry
// sent it, not the bytes the middle relay later rewrote in place.
func TestWiretapSeesCellBeforeRewrite(t *testing.T) {
	r := buildRig(t, 32)
	net := r.a.Net()
	tap, err := capture.New(capture.FullWiretap, capture.Placement{
		Node:   "middle",
		Actor:  legal.ActorGovernment,
		Source: legal.SourceThirdPartyNetwork,
	}, legal.ProcessWiretapOrder)
	if err != nil {
		t.Fatal(err)
	}
	if err := capture.NewGate(false).Arm(net, tap); err != nil {
		t.Fatal(err)
	}
	var sent, forwarded []byte
	if err := net.AttachTap("entry", tapFunc(func(d netsim.Direction, _ time.Duration, p *netsim.Packet) {
		if d == netsim.DirOutbound && p.Header.Dst == "middle" {
			sent = append([]byte(nil), p.Payload...)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := net.AttachTap("exit", tapFunc(func(d netsim.Direction, _ time.Duration, p *netsim.Packet) {
		if d == netsim.DirInbound && p.Header.Src == "middle" {
			forwarded = append([]byte(nil), p.Payload...)
		}
	})); err != nil {
		t.Fatal(err)
	}
	if err := r.client.Send(r.circ, "webserver", []byte("INTERCEPTED")); err != nil {
		t.Fatal(err)
	}
	net.Sim().Run()

	var inbound [][]byte
	for _, rec := range tap.Records() {
		if rec.Dir == netsim.DirInbound {
			inbound = append(inbound, rec.Payload)
		}
	}
	if len(inbound) != 1 || sent == nil || forwarded == nil {
		t.Fatalf("wiretap inbound records = %d, entry sent %d bytes, exit got %d bytes",
			len(inbound), len(sent), len(forwarded))
	}
	if !bytes.Equal(inbound[0], sent) {
		t.Error("the wiretap's record is not the cell the entry sent")
	}
	if bytes.Equal(inbound[0], forwarded) {
		t.Error("the middle relay forwarded the cell unchanged")
	}
}

// TestSendErrorsConsumeSequence pins how Send's errors use forward
// sequence numbers: a destination name too long for the relay payload
// fails before a number is drawn, and an oversized cell after.
func TestSendErrorsConsumeSequence(t *testing.T) {
	r := buildRig(t, 33)
	long := netsim.NodeID(bytes.Repeat([]byte{'d'}, 256))
	if err := r.client.Send(r.circ, long, nil); !errors.Is(err, ErrBadCell) {
		t.Errorf("long destination err = %v", err)
	}
	if r.circ.fwdSeq != 0 {
		t.Errorf("after a too-long destination fwdSeq = %d, want 0", r.circ.fwdSeq)
	}
	if err := r.client.Send(r.circ, "webserver", make([]byte, cellDataCap)); !errors.Is(err, ErrCellTooLarge) {
		t.Errorf("oversize err = %v", err)
	}
	if r.circ.fwdSeq != 1 {
		t.Errorf("after an oversized cell fwdSeq = %d, want 1", r.circ.fwdSeq)
	}
}

// TestRelayZeroesPadding hands the middle relay a cell whose padding is
// not zero: the cell it forwards must carry zero padding, as a freshly
// built cell does.
func TestRelayZeroesPadding(t *testing.T) {
	r := buildRig(t, 34)
	net := r.a.Net()
	var forwarded []byte
	if err := net.AttachTap("exit", tapFunc(func(d netsim.Direction, _ time.Duration, p *netsim.Packet) {
		if d == netsim.DirInbound {
			forwarded = append([]byte(nil), p.Payload...)
		}
	})); err != nil {
		t.Fatal(err)
	}
	wire := newCell(r.circ.ID, 1, 10)
	for i := cellHeaderLen + 10; i < CellSize; i++ {
		wire[i] = 0xEE
	}
	r.relays[1].handle(net, &netsim.Packet{
		Header:  netsim.Header{Src: "entry", Dst: "middle", Flow: flowFor(r.circ.ID), Proto: netsim.ProtoTCP},
		Payload: wire,
	})
	net.Sim().Run()
	if len(forwarded) != CellSize {
		t.Fatalf("exit received %d bytes, want a %d-byte cell", len(forwarded), CellSize)
	}
	if !bytes.Equal(forwarded[cellHeaderLen+10:], make([]byte, CellSize-cellHeaderLen-10)) {
		t.Error("the forwarded cell's padding is not zero")
	}
}
