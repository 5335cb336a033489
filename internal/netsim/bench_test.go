// Micro-benchmarks for the simulator hot path: the event heap
// (Schedule/Step), packet transmission (Send), tap observation, and
// topology queries. scripts/bench.sh aggregates these (median-of-N,
// with -benchmem) into BENCH_netsim.json so the hot path has a tracked
// trajectory to regress against.
package netsim_test

import (
	"fmt"
	"testing"
	"time"

	"lawgate/internal/faults"
	"lawgate/internal/netsim"
	"lawgate/internal/netsim/topo"
)

// BenchmarkSimulatorStep measures one Schedule+Step cycle at steady
// state with a single in-flight event — the tightest loop the scheduler
// runs (a self-rescheduling tick, the Flow.emit shape).
func BenchmarkSimulatorStep(b *testing.B) {
	s := netsim.NewSimulator(1)
	var tick func()
	tick = func() { _ = s.Schedule(time.Microsecond, tick) }
	_ = s.Schedule(time.Microsecond, tick)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// BenchmarkSimulatorStepDeep is the same cycle with 1024 events
// resident, so sift-up/sift-down run at realistic heap depth.
func BenchmarkSimulatorStepDeep(b *testing.B) {
	s := netsim.NewSimulator(1)
	var tick func()
	tick = func() {
		// Spread reschedules so the heap stays shuffled rather than
		// degenerating into FIFO order.
		_ = s.Schedule(time.Duration(1+s.Rand().Intn(1000))*time.Microsecond, tick)
	}
	for i := 0; i < 1024; i++ {
		_ = s.Schedule(time.Duration(1+s.Rand().Intn(1000))*time.Microsecond, tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// benchNet builds a two-node network with the given link and a sink
// handler at the destination.
func benchNet(b *testing.B, link netsim.Link) *netsim.Network {
	b.Helper()
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	for _, id := range []netsim.NodeID{"src", "dst"} {
		if err := n.AddNode(id, nil); err != nil {
			b.Fatal(err)
		}
	}
	if err := n.Connect("src", "dst", link); err != nil {
		b.Fatal(err)
	}
	return n
}

// sendDrain transmits one packet and drives the simulator until the
// delivery lands, reusing pkt across calls (the network owns the packet
// during delivery, so the caller resets Hops between sends).
func sendDrain(b *testing.B, n *netsim.Network, pkt *netsim.Packet) {
	pkt.Hops = pkt.Hops[:0]
	if err := n.Send(pkt); err != nil {
		b.Fatal(err)
	}
	for n.Sim().Step() {
	}
}

// BenchmarkSend measures the un-faulted common case: one packet, no
// taps, no faults, delivered and handled.
func BenchmarkSend(b *testing.B) {
	n := benchNet(b, netsim.Link{Latency: time.Millisecond})
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f", Proto: netsim.ProtoTCP},
		Payload: []byte("benchmark-payload-0123456789"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendDrain(b, n, pkt)
	}
}

// BenchmarkSendWide is Send across a bandwidth-capped ISP trunk in a
// ~1,000-node composite topology, rotating over the edge trunks: the
// watermark scale trials' path, where a 2-node network hides the cost
// of resolving node IDs against a large topology.
func BenchmarkSendWide(b *testing.B) {
	const edges = 4
	g, err := topo.Composite(topo.CompositeConfig{
		Campuses: 48, HostsPerCampus: 20, ISPEdges: edges, TorRelays: 8,
		TrunkBandwidthBps: 50_000_000,
	})
	if err != nil {
		b.Fatal(err)
	}
	if len(g.Nodes) < 1000 {
		b.Fatalf("composite has %d nodes, want >= 1000", len(g.Nodes))
	}
	n := netsim.NewNetwork(netsim.NewSimulator(1))
	if err := g.ApplyTo(n, nil); err != nil {
		b.Fatal(err)
	}
	var dsts [edges]netsim.NodeID
	for e := range dsts {
		dsts[e] = netsim.NodeID(fmt.Sprintf("isp-edge%d", e))
	}
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "isp-core", Flow: "f", Proto: netsim.ProtoTCP},
		Payload: []byte("benchmark-payload-0123456789"),
	}
	for _, dst := range dsts { // grow the trunks' occupancy slots
		pkt.Header.Dst = dst
		sendDrain(b, n, pkt)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pkt.Header.Dst = dsts[i%edges]
		sendDrain(b, n, pkt)
	}
}

// nullTap counts observations without retaining the snapshot.
type nullTap struct{ seen int }

func (t *nullTap) Observe(netsim.Direction, time.Duration, *netsim.Packet) { t.seen++ }

// BenchmarkSendTapped is Send with passive observers at both endpoints
// — the capture-device configuration of the watermark experiment.
func BenchmarkSendTapped(b *testing.B) {
	n := benchNet(b, netsim.Link{Latency: time.Millisecond})
	for _, id := range []netsim.NodeID{"src", "dst"} {
		if err := n.AttachTap(id, &nullTap{}); err != nil {
			b.Fatal(err)
		}
	}
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f", Proto: netsim.ProtoTCP},
		Payload: []byte("benchmark-payload-0123456789"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendDrain(b, n, pkt)
	}
}

// BenchmarkSendFaulty is Send through an active fault hook (lossy
// profile): the degraded-substrate sweep configuration.
func BenchmarkSendFaulty(b *testing.B) {
	n := benchNet(b, netsim.Link{Latency: time.Millisecond})
	plan, err := faults.Profile("lossy")
	if err != nil {
		b.Fatal(err)
	}
	hook, err := faults.NewPartitioned(plan, 7, n.Nodes())
	if err != nil {
		b.Fatal(err)
	}
	if err := n.SetFaults(hook); err != nil {
		b.Fatal(err)
	}
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f", Proto: netsim.ProtoTCP},
		Payload: []byte("benchmark-payload-0123456789"),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sendDrain(b, n, pkt)
	}
}

// BenchmarkNeighbors measures the topology query the overlay runs per
// forwarded query, at the experiment's default degree (16).
func BenchmarkNeighbors(b *testing.B) {
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	if err := n.AddNode("hub", nil); err != nil {
		b.Fatal(err)
	}
	ids := make([]netsim.NodeID, 16)
	for i := range ids {
		ids[i] = netsim.NodeID(string(rune('a' + i)))
		if err := n.AddNode(ids[i], nil); err != nil {
			b.Fatal(err)
		}
		if err := n.Connect("hub", ids[i], netsim.Link{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := n.Neighbors("hub"); len(got) != 16 {
			b.Fatalf("Neighbors = %v", got)
		}
	}
}

// BenchmarkHeapChurn schedules a burst of out-of-order events and
// drains them — the heap under adversarial (random) arrival order.
func BenchmarkHeapChurn(b *testing.B) {
	s := netsim.NewSimulator(1)
	delays := make([]time.Duration, 1024)
	for i := range delays {
		delays[i] = time.Duration(1+s.Rand().Intn(1_000_000)) * time.Nanosecond
	}
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, d := range delays {
			_ = s.Schedule(d, fn)
		}
		for s.Step() {
		}
	}
}
