package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lawgate/internal/netsim"
)

// TestPartitionedTransmitPerSource: transmit draws come from the source
// node's private stream, so one source's fault sequence is unaffected
// by another source sending in between.
func TestPartitionedTransmitPerSource(t *testing.T) {
	plan := Plan{Loss: 0.5, Reorder: 0.5, ReorderSpread: 10 * time.Millisecond}
	seq := func(interleave bool) []netsim.Fault {
		p, err := NewPartitioned(plan, 7, []netsim.NodeID{"a", "b"})
		if err != nil {
			t.Fatal(err)
		}
		var out []netsim.Fault
		for i := 0; i < 50; i++ {
			if interleave {
				p.Transmit("b", "a", 0, nil)
			}
			f := p.Transmit("a", "b", 0, nil)
			f.Duplicates = nil // compare scalar fields
			out = append(out, f)
		}
		return out
	}
	if !reflect.DeepEqual(seq(false), seq(true)) {
		t.Error("interleaved sends from another source perturbed a's fault stream")
	}
}

// TestPartitionedUnknownNodeFailsClosed: a query about a node the hook
// was not built for panics instead of answering "no fault", so a node
// can never run fault-free by omission.
func TestPartitionedUnknownNodeFailsClosed(t *testing.T) {
	plan, err := Profile("hostile")
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPartitioned(plan, 1, []netsim.NodeID{"known"})
	if err != nil {
		t.Fatal(err)
	}
	if !p.Covers("known") || p.Covers("ghost") {
		t.Errorf("Covers(known)=%v Covers(ghost)=%v, want true, false", p.Covers("known"), p.Covers("ghost"))
	}
	for name, query := range map[string]func(){
		"Transmit": func() { p.Transmit("ghost", "known", 0, nil) },
		"Down":     func() { p.Down("ghost", time.Hour) },
		"Outages":  func() { p.Outages("ghost", time.Hour) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on an uncovered node did not panic", name)
				}
			}()
			query()
		}()
	}
}

// TestLossyPlanCoversEveryNode: a lossy hook attached before a node is
// added refuses that node, and one built from the finished topology
// faults every node — none runs silently exempt.
func TestLossyPlanCoversEveryNode(t *testing.T) {
	plan := Plan{Loss: 1.0}
	n := netsim.NewNetwork(netsim.NewSimulator(1))
	if err := n.AddNode("early", nil); err != nil {
		t.Fatal(err)
	}
	hook := attach(t, n, plan, 1)
	if err := n.AddNode("late", nil); !errors.Is(err, netsim.ErrFaultCoverage) {
		t.Fatalf("AddNode after a lossy hook that does not cover it = %v, want ErrFaultCoverage", err)
	}
	if err := n.SetFaults(nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("late", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.SetFaults(hook); !errors.Is(err, netsim.ErrFaultCoverage) {
		t.Fatalf("SetFaults with a hook missing a node = %v, want ErrFaultCoverage", err)
	}
	if err := n.Connect("early", "late", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	attach(t, n, plan, 1)
	for _, src := range []netsim.NodeID{"early", "late"} {
		dst := netsim.NodeID("late")
		if src == dst {
			dst = "early"
		}
		if err := n.Send(&netsim.Packet{Header: netsim.Header{Src: src, Dst: dst}}); err != nil {
			t.Fatal(err)
		}
	}
	n.Sim().Run()
	if n.Delivered != 0 || n.FaultDropped != 2 {
		t.Errorf("delivered %d, fault-dropped %d; want every packet of every node lost", n.Delivered, n.FaultDropped)
	}
}

// TestPartitionedStatsSum: per-node stats aggregate.
func TestPartitionedStatsSum(t *testing.T) {
	plan := Plan{Loss: 1.0}
	p, err := NewPartitioned(plan, 1, []netsim.NodeID{"a", "b"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		p.Transmit("a", "b", 0, nil)
	}
	p.Transmit("b", "a", 0, nil)
	if got := p.Stats().Dropped; got != 4 {
		t.Errorf("summed Dropped = %d, want 4", got)
	}
}
