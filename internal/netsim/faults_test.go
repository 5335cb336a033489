package netsim

import (
	"math/rand"
	"testing"
	"time"
)

// stubFaults is a scriptable FaultHook for testing the network wiring.
type stubFaults struct {
	transmit func(src, dst NodeID, now time.Duration, pkt *Packet) Fault
	down     func(id NodeID, now time.Duration) bool
}

func (s *stubFaults) Transmit(src, dst NodeID, now time.Duration, pkt *Packet) Fault {
	if s.transmit == nil {
		return Fault{}
	}
	return s.transmit(src, dst, now, pkt)
}

func (s *stubFaults) Down(id NodeID, now time.Duration) bool {
	if s.down == nil {
		return false
	}
	return s.down(id, now)
}

// Covers implements FaultHook: a stub scripts every node.
func (s *stubFaults) Covers(NodeID) bool { return true }

var _ FaultHook = (*stubFaults)(nil)

func TestFaultHookDrop(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond})
	rng := rand.New(rand.NewSource(42))
	n.SetFaults(&stubFaults{
		transmit: func(_, _ NodeID, _ time.Duration, _ *Packet) Fault {
			return Fault{Drop: rng.Float64() < 0.3}
		},
	})
	const total = 2000
	for i := 0; i < total; i++ {
		sendPkt(t, n, "x")
	}
	n.Sim().Run()
	got := len(*delivered)
	if got < total*6/10 || got > total*8/10 {
		t.Errorf("30%% fault loss delivered %d/%d, outside [60%%,80%%]", got, total)
	}
	if int64(got)+n.FaultDropped != total {
		t.Errorf("delivered+faultDropped = %d, want %d", int64(got)+n.FaultDropped, total)
	}
	if n.Dropped != 0 {
		t.Errorf("link Dropped = %d, want 0 (drops belong to the fault layer)", n.Dropped)
	}
}

func TestFaultHookDuplicate(t *testing.T) {
	n, delivered := twoNodeNet(t, Link{Latency: 10 * time.Millisecond})
	n.SetFaults(&stubFaults{
		transmit: func(_, _ NodeID, _ time.Duration, _ *Packet) Fault {
			return Fault{Duplicates: []time.Duration{3 * time.Millisecond}}
		},
	})
	sendPkt(t, n, "dup")
	n.Sim().Run()
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d packets, want original + duplicate", len(*delivered))
	}
	if (*delivered)[0].DeliveredAt != 10*time.Millisecond {
		t.Errorf("original delivered at %v", (*delivered)[0].DeliveredAt)
	}
	if (*delivered)[1].DeliveredAt != 13*time.Millisecond {
		t.Errorf("duplicate delivered at %v, want 13ms", (*delivered)[1].DeliveredAt)
	}
	if n.Duplicated != 1 || n.Delivered != 2 {
		t.Errorf("counters: duplicated=%d delivered=%d", n.Duplicated, n.Delivered)
	}
}

func TestFaultHookReorder(t *testing.T) {
	// ExtraDelay on the first packet exceeding the send gap reorders it
	// behind the second.
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond})
	first := true
	n.SetFaults(&stubFaults{
		transmit: func(_, _ NodeID, _ time.Duration, _ *Packet) Fault {
			if first {
				first = false
				return Fault{ExtraDelay: 5 * time.Millisecond}
			}
			return Fault{}
		},
	})
	sendPkt(t, n, "early")
	sendPkt(t, n, "late")
	n.Sim().Run()
	if len(*delivered) != 2 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	if string((*delivered)[0].Payload) != "late" || string((*delivered)[1].Payload) != "early" {
		t.Errorf("order = %q, %q; want reordered", (*delivered)[0].Payload, (*delivered)[1].Payload)
	}
}

func TestFaultHookBandwidthCap(t *testing.T) {
	// A fault cap of 8000 bps on an unconstrained link makes a 100-byte
	// packet take 100 ms to serialize.
	n, delivered := twoNodeNet(t, Link{Latency: 10 * time.Millisecond})
	n.SetFaults(&stubFaults{
		transmit: func(_, _ NodeID, _ time.Duration, _ *Packet) Fault {
			return Fault{BandwidthBps: 8000}
		},
	})
	if err := n.Send(&Packet{Header: Header{Src: "alice", Dst: "bob", SizeBytes: 100}}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d", len(*delivered))
	}
	if (*delivered)[0].DeliveredAt != 110*time.Millisecond {
		t.Errorf("delivered at %v, want 110ms", (*delivered)[0].DeliveredAt)
	}
}

func TestFaultHookCapNeverLoosensLink(t *testing.T) {
	// The link's own 8000 bps bound wins over a looser fault cap.
	n, delivered := twoNodeNet(t, Link{Latency: 10 * time.Millisecond, BandwidthBps: 8000})
	n.SetFaults(&stubFaults{
		transmit: func(_, _ NodeID, _ time.Duration, _ *Packet) Fault {
			return Fault{BandwidthBps: 1 << 40}
		},
	})
	if err := n.Send(&Packet{Header: Header{Src: "alice", Dst: "bob", SizeBytes: 100}}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	if (*delivered)[0].DeliveredAt != 110*time.Millisecond {
		t.Errorf("delivered at %v, want 110ms", (*delivered)[0].DeliveredAt)
	}
}

func TestFaultHookSrcDown(t *testing.T) {
	// A crashed source transmits nothing: no tap observation, no link
	// loss draw, the packet simply never reaches the wire.
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond})
	tap := &recordingTap{}
	if err := n.AttachTap("alice", tap); err != nil {
		t.Fatal(err)
	}
	n.SetFaults(&stubFaults{
		down: func(id NodeID, now time.Duration) bool {
			return id == "alice" && now < 10*time.Millisecond
		},
	})
	sendPkt(t, n, "while down")
	if err := n.Sim().Schedule(20*time.Millisecond, func() {
		sendPkt(t, n, "after recovery")
	}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	if len(*delivered) != 1 || string((*delivered)[0].Payload) != "after recovery" {
		t.Fatalf("delivered %v", *delivered)
	}
	if len(tap.observations) != 1 {
		t.Errorf("tap saw %d packets; a down source must not reach the wire", len(tap.observations))
	}
	if n.FaultDropped != 1 {
		t.Errorf("FaultDropped = %d, want 1", n.FaultDropped)
	}
}

func TestFaultHookDstDownWindow(t *testing.T) {
	// A destination that is down when packets arrive loses them; packets
	// arriving outside the down window are delivered. The window is
	// checked at delivery time, so a packet sent just before the crash
	// and arriving during it is lost (crash-while-in-flight).
	n, delivered := twoNodeNet(t, Link{Latency: 5 * time.Millisecond})
	n.SetFaults(&stubFaults{
		down: func(id NodeID, now time.Duration) bool {
			return id == "bob" && now >= 4*time.Millisecond && now < 30*time.Millisecond
		},
	})
	sendPkt(t, n, "in flight at crash") // arrives t=5ms: lost
	for _, at := range []time.Duration{10 * time.Millisecond, 40 * time.Millisecond} {
		at := at
		if err := n.Sim().ScheduleAt(at, func() {
			sendPkt(t, n, "probe")
		}); err != nil {
			t.Fatal(err)
		}
	}
	n.Sim().Run()
	// t=10ms send arrives t=15ms (down, lost); t=40ms send arrives t=45ms (up).
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d packets during/around down window, want 1", len(*delivered))
	}
	if (*delivered)[0].DeliveredAt != 45*time.Millisecond {
		t.Errorf("survivor delivered at %v, want 45ms", (*delivered)[0].DeliveredAt)
	}
	if n.FaultDropped != 2 {
		t.Errorf("FaultDropped = %d, want 2", n.FaultDropped)
	}
}

func TestNilFaultsUnchanged(t *testing.T) {
	// SetFaults(nil) restores baseline behavior.
	n, delivered := twoNodeNet(t, Link{Latency: time.Millisecond})
	n.SetFaults(&stubFaults{transmit: func(_, _ NodeID, _ time.Duration, _ *Packet) Fault {
		return Fault{Drop: true}
	}})
	n.SetFaults(nil)
	sendPkt(t, n, "x")
	n.Sim().Run()
	if len(*delivered) != 1 {
		t.Fatalf("delivered %d", len(*delivered))
	}
}
