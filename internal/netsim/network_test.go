package netsim

import (
	"errors"
	"testing"
	"time"
)

type recordingTap struct {
	observations []struct {
		dir Direction
		at  time.Duration
		pkt *Packet
	}
}

func (r *recordingTap) Observe(dir Direction, at time.Duration, pkt *Packet) {
	r.observations = append(r.observations, struct {
		dir Direction
		at  time.Duration
		pkt *Packet
	}{dir, at, pkt})
}

var _ Tap = (*recordingTap)(nil)

func twoNodeNet(t *testing.T, link Link) (*Network, *[]*Packet) {
	t.Helper()
	sim := NewSimulator(1)
	n := NewNetwork(sim)
	var delivered []*Packet
	if err := n.AddNode("alice", nil); err != nil {
		t.Fatal(err)
	}
	// Delivered packets are recycled once the handler returns, so the
	// recorder keeps copies.
	if err := n.AddNode("bob", HandlerFunc(func(_ *Network, p *Packet) {
		delivered = append(delivered, p.Clone())
	})); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("alice", "bob", link); err != nil {
		t.Fatal(err)
	}
	return n, &delivered
}

func sendPkt(t *testing.T, n *Network, payload string) {
	t.Helper()
	err := n.Send(&Packet{
		Header:  Header{Src: "alice", Dst: "bob", Flow: "f1", Proto: ProtoTCP},
		Payload: []byte(payload),
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNetworkDelivery(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: 10 * time.Millisecond})
	sendPkt(t, n, "hello")
	n.Sim().Run()
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*delivered))
	}
	p := (*delivered)[0]
	if string(p.Payload) != "hello" {
		t.Errorf("payload = %q", p.Payload)
	}
	if p.DeliveredAt != 10*time.Millisecond {
		t.Errorf("DeliveredAt = %v, want 10ms", p.DeliveredAt)
	}
	if p.SentAt != 0 {
		t.Errorf("SentAt = %v, want 0", p.SentAt)
	}
	if p.Header.Src != "alice" || p.Header.Dst != "bob" {
		t.Errorf("Src, Dst = %q, %q, want alice, bob", p.Header.Src, p.Header.Dst)
	}
	if p.Header.SizeBytes != len("hello")+40 {
		t.Errorf("SizeBytes = %d", p.Header.SizeBytes)
	}
	if n.Delivered != 1 || n.Dropped != 0 {
		t.Errorf("counters: delivered=%d dropped=%d", n.Delivered, n.Dropped)
	}
}

func TestNetworkErrors(t *testing.T) {
	sim := NewSimulator(1)
	n := NewNetwork(sim)
	if err := n.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("a", nil); !errors.Is(err, ErrDuplicateNode) {
		t.Errorf("duplicate node err = %v", err)
	}
	if err := n.Connect("a", "ghost", Link{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("connect unknown err = %v", err)
	}
	if err := n.AddNode("b", nil); err != nil {
		t.Fatal(err)
	}
	err := n.Send(&Packet{Header: Header{Src: "a", Dst: "b"}})
	if !errors.Is(err, ErrNoLink) {
		t.Errorf("no-link err = %v", err)
	}
	err = n.Send(&Packet{Header: Header{Src: "ghost", Dst: "b"}})
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown src err = %v", err)
	}
	err = n.Send(&Packet{Header: Header{Src: "a", Dst: "ghost"}})
	if !errors.Is(err, ErrUnknownNode) {
		t.Errorf("unknown dst err = %v", err)
	}
	if err := n.AttachTap("ghost", &recordingTap{}); !errors.Is(err, ErrUnknownNode) {
		t.Errorf("tap unknown err = %v", err)
	}
}

func TestNetworkLoss(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond, Loss: 1.0})
	for i := 0; i < 20; i++ {
		sendPkt(t, n, "x")
	}
	n.Sim().Run()
	if len(*delivered) != 0 {
		t.Errorf("loss=1.0 delivered %d packets", len(*delivered))
	}
	if n.Dropped != 20 {
		t.Errorf("Dropped = %d, want 20", n.Dropped)
	}
}

func TestNetworkPartialLoss(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond, Loss: 0.5})
	const total = 2000
	for i := 0; i < total; i++ {
		sendPkt(t, n, "x")
	}
	n.Sim().Run()
	got := len(*delivered)
	if got < total*4/10 || got > total*6/10 {
		t.Errorf("50%% loss delivered %d/%d, outside [40%%,60%%]", got, total)
	}
	if int64(got)+n.Dropped != total {
		t.Errorf("delivered+dropped = %d, want %d", int64(got)+n.Dropped, total)
	}
}

func TestNetworkJitterBounds(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: 10 * time.Millisecond, Jitter: 5 * time.Millisecond})
	for i := 0; i < 100; i++ {
		sendPkt(t, n, "x")
	}
	n.Sim().Run()
	for _, p := range *delivered {
		d := p.DeliveredAt - p.SentAt
		if d < 10*time.Millisecond || d >= 15*time.Millisecond {
			t.Fatalf("delay %v outside [10ms,15ms)", d)
		}
	}
}

func TestTapsSeeBothDirections(t *testing.T) {
	n, _ := twoNodeNet(t, Link{Latency: time.Millisecond})
	srcTap, dstTap := &recordingTap{}, &recordingTap{}
	if err := n.AttachTap("alice", srcTap); err != nil {
		t.Fatal(err)
	}
	if err := n.AttachTap("bob", dstTap); err != nil {
		t.Fatal(err)
	}
	sendPkt(t, n, "secret")
	n.Sim().Run()
	if len(srcTap.observations) != 1 || srcTap.observations[0].dir != DirOutbound {
		t.Errorf("src tap observations: %+v", srcTap.observations)
	}
	if len(dstTap.observations) != 1 || dstTap.observations[0].dir != DirInbound {
		t.Errorf("dst tap observations: %+v", dstTap.observations)
	}
	if dstTap.observations[0].at != time.Millisecond {
		t.Errorf("inbound observed at %v, want 1ms", dstTap.observations[0].at)
	}
}

func TestTapObservesClone(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond})
	tap := &recordingTap{}
	if err := n.AttachTap("bob", tap); err != nil {
		t.Fatal(err)
	}
	sendPkt(t, n, "original")
	n.Sim().Run()
	// Mutating the tap's copy must not affect the delivered packet.
	tap.observations[0].pkt.Payload[0] = 'X'
	if string((*delivered)[0].Payload) != "original" {
		t.Error("tap mutation leaked into delivery: taps must observe clones")
	}
}

func TestNeighbors(t *testing.T) {
	sim := NewSimulator(1)
	n := NewNetwork(sim)
	for _, id := range []NodeID{"hub", "a", "b", "c"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []NodeID{"a", "b", "c"} {
		if err := n.Connect("hub", id, Link{}); err != nil {
			t.Fatal(err)
		}
	}
	got := n.Neighbors("hub")
	if len(got) != 3 {
		t.Errorf("Neighbors(hub) = %v", got)
	}
	if !n.Linked("hub", "a") || n.Linked("a", "b") {
		t.Error("Linked misreports topology")
	}
	if len(n.Neighbors("a")) != 1 {
		t.Errorf("Neighbors(a) = %v", n.Neighbors("a"))
	}
}

func TestAppendNeighbors(t *testing.T) {
	sim := NewSimulator(1)
	n := NewNetwork(sim)
	for _, id := range []NodeID{"hub", "c", "a", "b"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []NodeID{"c", "a", "b"} {
		if err := n.Connect("hub", id, Link{}); err != nil {
			t.Fatal(err)
		}
	}
	// Appends after any existing prefix, in the same ascending order
	// Neighbors reports.
	got := n.AppendNeighbors("hub", []NodeID{"prefix"})
	want := []NodeID{"prefix", "a", "b", "c"}
	if len(got) != len(want) {
		t.Fatalf("AppendNeighbors = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AppendNeighbors = %v, want %v", got, want)
		}
	}
	if out := n.AppendNeighbors("isolated-or-unknown", nil); out != nil {
		t.Errorf("AppendNeighbors(unknown, nil) = %v, want nil", out)
	}
}

func TestPacketClone(t *testing.T) {
	p := &Packet{
		Header:  Header{Src: "a", Dst: "b"},
		Payload: []byte("data"),
	}
	c := p.Clone()
	c.Payload[0] = 'X'
	c.Header.Src = "z"
	if string(p.Payload) != "data" || p.Header.Src != "a" {
		t.Error("Clone must deep-copy the payload and copy the header")
	}
}

func TestProtocolString(t *testing.T) {
	if ProtoTCP.String() != "tcp" || ProtoUDP.String() != "udp" {
		t.Error("protocol names wrong")
	}
	if Protocol(9).String() != "Protocol(9)" {
		t.Errorf("placeholder = %q", Protocol(9).String())
	}
	if DirInbound.String() != "inbound" || DirOutbound.String() != "outbound" {
		t.Error("direction names wrong")
	}
	if Direction(9).String() != "Direction(9)" {
		t.Errorf("placeholder = %q", Direction(9).String())
	}
}

func TestBandwidthSerialization(t *testing.T) {
	// 8000 bps link: a 100-byte packet (800 bits) takes 100 ms to
	// serialize. Three packets sent together depart back to back.
	n, delivered := twoNodeNet(t, Link{Latency: 10 * time.Millisecond, BandwidthBps: 8000})
	for i := 0; i < 3; i++ {
		err := n.Send(&Packet{
			Header: Header{Src: "alice", Dst: "bob", Flow: "f", SizeBytes: 100},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	n.Sim().Run()
	if len(*delivered) != 3 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	want := []time.Duration{110 * time.Millisecond, 210 * time.Millisecond, 310 * time.Millisecond}
	for i, p := range *delivered {
		if p.DeliveredAt != want[i] {
			t.Errorf("packet %d delivered at %v, want %v", i, p.DeliveredAt, want[i])
		}
	}
}

func TestBandwidthDirectionsIndependent(t *testing.T) {
	// Serialization queues are per direction: opposite-direction packets
	// do not queue behind each other.
	sim := NewSimulator(1)
	n := NewNetwork(sim)
	var times []time.Duration
	record := HandlerFunc(func(_ *Network, p *Packet) {
		times = append(times, p.DeliveredAt)
	})
	if err := n.AddNode("a", record); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("b", record); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", "b", Link{BandwidthBps: 8000}); err != nil {
		t.Fatal(err)
	}
	for _, hdr := range []Header{
		{Src: "a", Dst: "b", SizeBytes: 100},
		{Src: "b", Dst: "a", SizeBytes: 100},
	} {
		if err := n.Send(&Packet{Header: hdr}); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	if len(times) != 2 {
		t.Fatalf("delivered %d", len(times))
	}
	for i, at := range times {
		if at != 100*time.Millisecond {
			t.Errorf("packet %d delivered at %v, want 100ms (no cross-direction queueing)", i, at)
		}
	}
}

func TestBandwidthQueueDrains(t *testing.T) {
	// After the queue drains, a later packet sees no residual delay.
	n, delivered := twoNodeNet(t, Link{BandwidthBps: 8_000_000}) // 100 B -> 0.1 ms
	err := n.Send(&Packet{Header: Header{Src: "alice", Dst: "bob", SizeBytes: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Sim().Schedule(time.Second, func() {
		_ = n.Send(&Packet{Header: Header{Src: "alice", Dst: "bob", SizeBytes: 100}})
	}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	gap := (*delivered)[1].DeliveredAt - (*delivered)[1].SentAt
	if gap != 100*time.Microsecond {
		t.Errorf("second packet delay = %v, want 100µs", gap)
	}
}

func TestZeroBandwidthUnconstrained(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond})
	for i := 0; i < 5; i++ {
		sendPkt(t, n, "x")
	}
	n.Sim().Run()
	for _, p := range *delivered {
		if p.DeliveredAt != time.Millisecond {
			t.Errorf("unconstrained link delayed packet to %v", p.DeliveredAt)
		}
	}
}
