package netsim

import (
	"errors"
	"testing"
	"time"
)

// latencyRecorder is a handler that records each delivered packet's
// send time and one-way delay.
type latencyRecorder struct{ sent, delays []time.Duration }

func (l *latencyRecorder) HandlePacket(_ *Network, p *Packet) {
	l.sent = append(l.sent, p.SentAt)
	l.delays = append(l.delays, p.DeliveredAt-p.SentAt)
}

// TestFlowStartedBeforeConnect: a Flow resolves its route on its first
// emit, not at Start, so a link connected between Start and the first
// packet still carries the flow.
func TestFlowStartedBeforeConnect(t *testing.T) {
	n := NewNetwork(NewSimulator(1))
	rec := &latencyRecorder{}
	if err := n.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("b", rec); err != nil {
		t.Fatal(err)
	}
	f := &Flow{Net: n, Src: "a", Dst: "b", ID: "f",
		Pattern: &CBR{Gap: time.Millisecond, Size: 100}, Until: 20 * time.Millisecond}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", "b", Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	if f.Sent() != 20 || len(rec.delays) != 20 {
		t.Errorf("Sent = %d, delivered = %d, want 20 and 20", f.Sent(), len(rec.delays))
	}
}

// TestReconnectRetunesRoutedFlow: the cached route holds the link's
// index, not a copy of its parameters, so re-Connecting the pair
// mid-run changes the latency and bandwidth an already-routed Flow sees.
func TestReconnectRetunesRoutedFlow(t *testing.T) {
	n := NewNetwork(NewSimulator(1))
	rec := &latencyRecorder{}
	if err := n.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("b", rec); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("a", "b", Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	f := &Flow{Net: n, Src: "a", Dst: "b", ID: "f",
		Pattern: &CBR{Gap: 10 * time.Millisecond, Size: 960}, Until: 100 * time.Millisecond}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	const retune = 50 * time.Millisecond
	n.Sim().RunUntil(retune)
	if len(rec.delays) == 0 || !f.routed {
		t.Fatalf("flow not yet routed at %s (delivered %d)", retune, len(rec.delays))
	}
	// 1000 bytes at 1 Mbps serialize in 8ms.
	if err := n.Connect("b", "a", Link{Latency: 5 * time.Millisecond, BandwidthBps: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	n.Sim().Run()
	for i, d := range rec.delays {
		want := time.Millisecond
		if rec.sent[i] > retune {
			want = 13 * time.Millisecond
		}
		if d != want {
			t.Errorf("packet sent at %s: delay = %s, want %s", rec.sent[i], d, want)
		}
	}
	if len(rec.delays) != 10 {
		t.Errorf("delivered %d packets, want 10", len(rec.delays))
	}
}

// TestShardedViewsShareTopology: nodes, links and taps added after the
// partition views exist are visible from every view (one shared table),
// while link occupancy is private to the view that sent.
func TestShardedViewsShareTopology(t *testing.T) {
	o := NewShardedNetwork(1, 2)
	if err := o.SetPartitionFunc(func(id NodeID) int {
		if id == "b" {
			return 1
		}
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	rec := &latencyRecorder{}
	if err := o.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := o.AddNode("b", rec); err != nil {
		t.Fatal(err)
	}
	// A view's AddNode is the owner's: the node gets its per-node tables.
	if err := o.partNet[1].AddNode("c", nil); err != nil {
		t.Fatal(err)
	}
	if _, err := o.NodeRand("c"); err != nil {
		t.Errorf("node added through a view: NodeRand = %v", err)
	}
	if err := o.Connect("a", "b", Link{Latency: time.Millisecond, BandwidthBps: 1_000_000}); err != nil {
		t.Fatal(err)
	}
	tap := &recordingTap{}
	if err := o.AttachTap("b", tap); err != nil {
		t.Fatal(err)
	}
	for p, view := range o.partNet {
		if !view.Linked("a", "b") || view.Degree("a") != 1 {
			t.Errorf("view %d: Linked(a,b) = %v, Degree(a) = %d, want true and 1",
				p, view.Linked("a", "b"), view.Degree("a"))
		}
		if got := view.Neighbors("b"); len(got) != 1 || got[0] != "a" {
			t.Errorf("view %d: Neighbors(b) = %v, want [a]", p, got)
		}
	}
	pn, err := o.PartitionNet("a")
	if err != nil {
		t.Fatal(err)
	}
	var sendErr error
	if err := o.ScheduleNode("a", 0, func() {
		for i := 0; i < 2 && sendErr == nil; i++ {
			sendErr = pn.Send(&Packet{Header: Header{Src: "a", Dst: "b", SizeBytes: 1000}})
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Run(2); err != nil || sendErr != nil {
		t.Fatalf("Run = %v, Send = %v", err, sendErr)
	}
	if len(rec.delays) != 2 || len(tap.observations) != 2 {
		t.Fatalf("delivered %d, tap saw %d, want 2 and 2", len(rec.delays), len(tap.observations))
	}
	// The second packet queues behind the first's 8ms serialization.
	if rec.delays[0] != 9*time.Millisecond || rec.delays[1] != 17*time.Millisecond {
		t.Errorf("delays = %v, want [9ms 17ms]", rec.delays)
	}
	if len(o.partNet[0].busy) == 0 || o.partNet[0].busy[0] != 16*time.Millisecond {
		t.Errorf("sending view's occupancy = %v, want a→b busy until 16ms", o.partNet[0].busy)
	}
	if len(o.partNet[1].busy) != 0 {
		t.Errorf("idle view's occupancy = %v, want untouched", o.partNet[1].busy)
	}
}

// TestSendErrorsUnchanged: Send's resolution failures keep their wrapped
// sentinel and exact message on both engines.
func TestSendErrorsUnchanged(t *testing.T) {
	classic := NewNetwork(NewSimulator(1))
	o := NewShardedNetwork(1, 1)
	nets := map[string]*Network{"classic": classic, "sharded": o.partNet[0]}
	for _, name := range []string{"classic", "sharded"} {
		n := nets[name]
		for _, id := range []NodeID{"a", "b", "c"} {
			if err := n.AddNode(id, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Connect("a", "b", Link{}); err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			src, dst NodeID
			sentinel error
			msg      string
		}{
			{"x", "b", ErrUnknownNode, `netsim: unknown node: src "x"`},
			{"a", "y", ErrUnknownNode, `netsim: unknown node: dst "y"`},
			{"a", "c", ErrNoLink, `netsim: no link between nodes: "a"-"c"`},
		} {
			err := n.Send(&Packet{Header: Header{Src: tc.src, Dst: tc.dst}})
			if !errors.Is(err, tc.sentinel) || err.Error() != tc.msg {
				t.Errorf("%s: Send(%s→%s) = %v, want %q", name, tc.src, tc.dst, err, tc.msg)
			}
		}
	}
}

// TestZeroLookaheadErrorDeterministic: Freeze names the first offending
// link in Connect order, so with several zero-latency cross links the
// message is the same on every build.
func TestZeroLookaheadErrorDeterministic(t *testing.T) {
	const want = `netsim: cross-partition link with zero latency: "a"-"b"`
	for run := 0; run < 20; run++ {
		o := NewShardedNetwork(1, 2)
		if err := o.SetPartitionFunc(func(id NodeID) int {
			if id == "a" || id == "c" {
				return 0
			}
			return 1
		}); err != nil {
			t.Fatal(err)
		}
		for _, id := range []NodeID{"a", "b", "c", "d"} {
			if err := o.AddNode(id, nil); err != nil {
				t.Fatal(err)
			}
		}
		for _, pair := range [][2]NodeID{{"b", "a"}, {"c", "d"}} {
			if err := o.Connect(pair[0], pair[1], Link{}); err != nil {
				t.Fatal(err)
			}
		}
		err := o.Freeze()
		if !errors.Is(err, ErrZeroLookahead) || err.Error() != want {
			t.Fatalf("run %d: Freeze() = %v, want %q", run, err, want)
		}
	}
}
