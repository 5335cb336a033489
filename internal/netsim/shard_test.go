package netsim_test

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"lawgate/internal/faults"
	"lawgate/internal/netsim"
	"lawgate/internal/netsim/topo"
)

// buildShardedScenario assembles the reference workload for the
// determinism property: a campus+ISP+Tor composite where hosts stream
// Poisson traffic to their gateways, gateways ack each packet back and
// stream upstream over bandwidth-capped trunks, and the Tor ring
// circulates cover traffic — local, cross-partition, congested, and
// reactive traffic all at once.
func runShardedScenario(t testing.TB, partitions, workers int, hostile bool) ([]netsim.TraceEntry, netsim.Totals) {
	t.Helper()
	const campuses, hosts = 6, 5
	g, err := topo.Composite(topo.CompositeConfig{
		Campuses: campuses, HostsPerCampus: hosts,
		ISPEdges: 2, TorRelays: 4,
		TrunkBandwidthBps: 50_000_000,
	})
	if err != nil {
		t.Fatal(err)
	}
	o := netsim.NewShardedNetwork(0x5eed, partitions)
	if err := o.SetPartitionFunc(g.PartitionFunc(partitions)); err != nil {
		t.Fatal(err)
	}
	handler := func(id netsim.NodeID) netsim.Handler {
		if !strings.HasSuffix(string(id), "-gw") {
			return nil
		}
		gw := id
		return netsim.HandlerFunc(func(n *netsim.Network, pkt *netsim.Packet) {
			if !strings.HasPrefix(string(pkt.Header.Flow), "up-") {
				return
			}
			_ = n.Send(&netsim.Packet{
				Header: netsim.Header{
					Src: gw, Dst: pkt.Header.Src,
					Flow:  "ack-" + pkt.Header.Flow,
					Proto: netsim.ProtoUDP, SizeBytes: 60,
				},
			})
		})
	}
	if err := g.ApplyTo(o, handler); err != nil {
		t.Fatal(err)
	}
	if hostile {
		plan, err := faults.Profile("hostile")
		if err != nil {
			t.Fatal(err)
		}
		ids := make([]netsim.NodeID, 0, len(g.Nodes))
		for _, n := range g.Nodes {
			ids = append(ids, n.ID)
		}
		hook, err := faults.NewPartitioned(plan, 0x5eed+1, ids)
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetFaults(hook); err != nil {
			t.Fatal(err)
		}
	}
	var flows []*netsim.Flow
	addFlow := func(src, dst netsim.NodeID, id netsim.FlowID, p netsim.TrafficPattern) {
		pn, err := o.PartitionNet(src)
		if err != nil {
			t.Fatal(err)
		}
		flows = append(flows, &netsim.Flow{
			Net: pn, Src: src, Dst: dst, ID: id, Pattern: p,
			Until: 400 * time.Millisecond,
		})
	}
	for c := 0; c < campuses; c++ {
		gw := netsim.NodeID(fmt.Sprintf("campus%d-gw", c))
		for h := 0; h < hosts; h++ {
			host := netsim.NodeID(fmt.Sprintf("campus%d/h%d", c, h))
			addFlow(host, gw, netsim.FlowID(fmt.Sprintf("up-%d-%d", c, h)),
				&netsim.Poisson{MeanGap: 20 * time.Millisecond, Size: 200})
		}
		edge := netsim.NodeID(fmt.Sprintf("isp-edge%d", c%2))
		addFlow(gw, edge, netsim.FlowID(fmt.Sprintf("trunk-%d", c)),
			&netsim.CBR{Gap: 5 * time.Millisecond, Size: 800})
	}
	for r := 1; r < 4; r++ {
		addFlow(netsim.NodeID(fmt.Sprintf("tor%d", r)), netsim.NodeID(fmt.Sprintf("tor%d", r-1)),
			netsim.FlowID(fmt.Sprintf("tor-ring-%d", r)),
			&netsim.CBR{Gap: 7 * time.Millisecond, Size: 512})
	}
	for _, f := range flows {
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
	}
	o.EnableTrace()
	if err := o.RunUntil(500*time.Millisecond, workers); err != nil {
		t.Fatal(err)
	}
	if o.Now() != 500*time.Millisecond {
		t.Fatalf("Now() = %v after RunUntil(500ms)", o.Now())
	}
	return o.Trace(), o.Totals()
}

// TestShardedPartitionCountInvariance is the tentpole property: the
// merged (at, seq) execution trace and all delivery totals are
// byte-identical across partition counts {1, 2, 4, NumCPU}, worker
// counts {1, 3}, and repeated runs — with and without the hostile
// faults profile.
func TestShardedPartitionCountInvariance(t *testing.T) {
	counts := []int{1, 2, 4, runtime.NumCPU()}
	for _, hostile := range []bool{false, true} {
		name := "clean"
		if hostile {
			name = "hostile"
		}
		t.Run(name, func(t *testing.T) {
			baseTrace, baseTotals := runShardedScenario(t, 1, 1, hostile)
			if len(baseTrace) < 500 {
				t.Fatalf("scenario too small to be meaningful: %d events", len(baseTrace))
			}
			if baseTotals.Delivered == 0 {
				t.Fatal("nothing delivered")
			}
			if hostile && baseTotals.FaultDropped == 0 {
				t.Error("hostile run injected no faults")
			}
			for _, parts := range counts {
				for _, workers := range []int{1, 3} {
					trace, totals := runShardedScenario(t, parts, workers, hostile)
					if totals != baseTotals {
						t.Errorf("partitions=%d workers=%d: totals = %+v, want %+v",
							parts, workers, totals, baseTotals)
					}
					if !reflect.DeepEqual(trace, baseTrace) {
						i := 0
						for i < len(trace) && i < len(baseTrace) && trace[i] == baseTrace[i] {
							i++
						}
						t.Errorf("partitions=%d workers=%d: trace diverges at event %d of %d/%d",
							parts, workers, i, len(trace), len(baseTrace))
					}
				}
			}
		})
	}
}

// TestShardedCrossPartitionDelivery checks the basic cross-partition
// path: a message sent from partition 0 arrives at partition 1 exactly
// one link latency later, with hops and totals accounted.
func TestShardedCrossPartitionDelivery(t *testing.T) {
	o := netsim.NewShardedNetwork(7, 2)
	if err := o.SetPartitionFunc(func(id netsim.NodeID) int {
		if id == "a" {
			return 0
		}
		return 1
	}); err != nil {
		t.Fatal(err)
	}
	var deliveredAt time.Duration
	var hops []netsim.NodeID
	if err := o.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	err := o.AddNode("b", netsim.HandlerFunc(func(n *netsim.Network, pkt *netsim.Packet) {
		deliveredAt = n.Sim().Now()
		hops = append(hops, pkt.Hops...)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := o.Connect("a", "b", netsim.Link{Latency: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	pn, err := o.PartitionNet("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := o.ScheduleNode("a", 0, func() {
		_ = pn.Send(&netsim.Packet{Header: netsim.Header{Src: "a", Dst: "b"}})
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Run(2); err != nil {
		t.Fatal(err)
	}
	if deliveredAt != 5*time.Millisecond {
		t.Errorf("delivered at %v, want 5ms", deliveredAt)
	}
	if !reflect.DeepEqual(hops, []netsim.NodeID{"a", "b"}) {
		t.Errorf("hops = %v", hops)
	}
	if tot := o.Totals(); tot.Delivered != 1 {
		t.Errorf("totals = %+v", tot)
	}
	if o.Lookahead() != 5*time.Millisecond {
		t.Errorf("lookahead = %v, want 5ms", o.Lookahead())
	}
}

// TestShardedZeroLookaheadRejected: a zero-latency cross-partition link
// leaves no safe window and must fail at Freeze.
func TestShardedZeroLookaheadRejected(t *testing.T) {
	o := netsim.NewShardedNetwork(1, 2)
	if err := o.SetPartitionFunc(func(id netsim.NodeID) int {
		if id == "a" {
			return 0
		}
		return 1
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := o.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Connect("a", "b", netsim.Link{}); err != nil {
		t.Fatal(err)
	}
	if err := o.Freeze(); !errors.Is(err, netsim.ErrZeroLookahead) {
		t.Errorf("Freeze() = %v, want ErrZeroLookahead", err)
	}
}

// TestShardedWrongPartitionSend: sends must be issued through the
// partition view owning the source.
func TestShardedWrongPartitionSend(t *testing.T) {
	o := netsim.NewShardedNetwork(1, 2)
	if err := o.SetPartitionFunc(func(id netsim.NodeID) int {
		if id == "a" {
			return 0
		}
		return 1
	}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := o.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Connect("a", "b", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	pnB, err := o.PartitionNet("b")
	if err != nil {
		t.Fatal(err)
	}
	err = pnB.Send(&netsim.Packet{Header: netsim.Header{Src: "a", Dst: "b"}})
	if !errors.Is(err, netsim.ErrWrongPartition) {
		t.Errorf("foreign-view Send = %v, want ErrWrongPartition", err)
	}
}

// TestShardedRejectsUncoveredFaults: a fault hook must cover every node
// of the run, whichever way round hook and nodes arrive.
func TestShardedRejectsUncoveredFaults(t *testing.T) {
	o := netsim.NewShardedNetwork(1, 2)
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := o.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	partial, err := faults.NewPartitioned(faults.Plan{Loss: 0.1}, 1, []netsim.NodeID{"a"})
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetFaults(partial); !errors.Is(err, netsim.ErrFaultCoverage) || !strings.Contains(err.Error(), `"b"`) {
		t.Errorf("SetFaults(hook missing b) = %v, want ErrFaultCoverage naming b", err)
	}
	hook, err := faults.NewPartitioned(faults.Plan{Loss: 0.1}, 1, o.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := o.SetFaults(hook); err != nil {
		t.Fatalf("SetFaults(hook over Nodes()) = %v", err)
	}
	if err := o.AddNode("c", nil); !errors.Is(err, netsim.ErrFaultCoverage) {
		t.Errorf("AddNode(c) under a hook without c = %v, want ErrFaultCoverage", err)
	}
	if got := o.Nodes(); !reflect.DeepEqual(got, []netsim.NodeID{"a", "b"}) {
		t.Errorf("Nodes() = %v after refused AddNode, want [a b]", got)
	}
}

// TestShardedStepBudget: the budget stops a runaway simulation and
// Exhausted reports it.
func TestShardedStepBudget(t *testing.T) {
	o := netsim.NewShardedNetwork(3, 2)
	for _, id := range []netsim.NodeID{"a", "b"} {
		if err := o.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Connect("a", "b", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	pn, err := o.PartitionNet("a")
	if err != nil {
		t.Fatal(err)
	}
	f := &netsim.Flow{
		Net: pn, Src: "a", Dst: "b", ID: "f",
		Pattern: &netsim.CBR{Gap: time.Millisecond, Size: 100},
		Until:   time.Hour,
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	o.SetStepBudget(50)
	if err := o.Run(2); err != nil {
		t.Fatal(err)
	}
	if !o.Exhausted() {
		t.Error("budgeted runaway run not Exhausted")
	}
	if o.Steps() < 50 {
		t.Errorf("steps = %d, want ≥ 50", o.Steps())
	}
}

// TestShardedFrozenRejectsMutation: topology changes after Freeze fail.
func TestShardedFrozenRejectsMutation(t *testing.T) {
	o := netsim.NewShardedNetwork(1, 2)
	if err := o.AddNode("a", nil); err != nil {
		t.Fatal(err)
	}
	if err := o.Freeze(); err != nil {
		t.Fatal(err)
	}
	if err := o.AddNode("b", nil); !errors.Is(err, netsim.ErrFrozen) {
		t.Errorf("AddNode after Freeze = %v, want ErrFrozen", err)
	}
	if err := o.Connect("a", "a", netsim.Link{}); !errors.Is(err, netsim.ErrFrozen) {
		t.Errorf("Connect after Freeze = %v, want ErrFrozen", err)
	}
}
