// Allocation-regression guards for the hot path. The zero-allocation
// property of the event slab and of Send's free-list packets is
// a measured performance win (see BENCH_netsim.json); these tests pin
// it so a later refactor cannot silently rot it back.
package netsim_test

import (
	"strconv"
	"testing"
	"time"

	"lawgate/internal/netsim"
)

// TestScheduleStepZeroAlloc pins steady-state Schedule+Step to exactly
// zero allocations: events are values in the reused heap slab, and a
// pre-existing func value schedules without boxing.
func TestScheduleStepZeroAlloc(t *testing.T) {
	s := netsim.NewSimulator(1)
	fn := func() {}
	// Warm the slab past its high-water mark.
	for i := 0; i < 64; i++ {
		if err := s.Schedule(time.Microsecond, fn); err != nil {
			t.Fatal(err)
		}
	}
	s.Run()
	allocs := testing.AllocsPerRun(1000, func() {
		_ = s.Schedule(time.Microsecond, fn)
		s.Step()
	})
	if allocs != 0 {
		t.Errorf("steady-state Schedule+Step allocs/op = %v, want 0", allocs)
	}
}

// TestScheduleStepDeepZeroAlloc pins Schedule+Step to zero allocations
// with 1024 events resident, where every pop sifts a key down the full
// heap depth and every push reuses a slab slot from the free list.
func TestScheduleStepDeepZeroAlloc(t *testing.T) {
	s := netsim.NewSimulator(1)
	var tick func()
	tick = func() {
		_ = s.Schedule(time.Duration(1+s.Rand().Intn(1000))*time.Microsecond, tick)
	}
	for i := 0; i < 1024; i++ {
		if err := s.Schedule(time.Duration(1+s.Rand().Intn(1000))*time.Microsecond, tick); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ { // warm the heap, slab and free list
		s.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() { s.Step() })
	if allocs != 0 {
		t.Errorf("deep-heap Schedule+Step allocs/op = %v, want 0", allocs)
	}
	if s.Pending() != 1024 {
		t.Errorf("Pending = %d, want 1024 (every step reschedules one event)", s.Pending())
	}
}

// takeAllocs is the allocation count of one packet the network takes
// from its free list: none, or exactly one in a netsimscribble build,
// which never reuses a packet.
func takeAllocs() float64 {
	if netsim.Scribbled() {
		return 1
	}
	return 0
}

// TestSendFreshPacketAllocs pins a fresh packet literal (the shape every
// protocol handler sends) to zero allocations: Send transmits a copy
// taken from the free list, so the literal stays on the caller's stack,
// and the delivery event reuses a slab slot.
func TestSendFreshPacketAllocs(t *testing.T) {
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	var got netsim.Header
	var sentAt, deliveredAt time.Duration
	record := netsim.HandlerFunc(func(_ *netsim.Network, pkt *netsim.Packet) {
		got, sentAt, deliveredAt = pkt.Header, pkt.SentAt, pkt.DeliveredAt
	})
	if err := n.AddNode("src", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("dst", record); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("src", "dst", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	payload := []byte("fresh-packet-payload")
	send := func() {
		pkt := &netsim.Packet{
			Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f", Proto: netsim.ProtoTCP},
			Payload: payload,
		}
		if err := n.Send(pkt); err != nil {
			t.Fatal(err)
		}
		for sim.Step() {
		}
	}
	send() // warm the event slab and the free list
	allocs := testing.AllocsPerRun(1000, send)
	if want := takeAllocs(); allocs != want {
		t.Errorf("fresh-packet Send+deliver allocs/op = %v, want %v", allocs, want)
	}
	if got.Src != "src" || got.Dst != "dst" {
		t.Errorf("Src, Dst = %q, %q, want src, dst", got.Src, got.Dst)
	}
	if deliveredAt != sim.Now() || deliveredAt-sentAt != time.Millisecond {
		t.Errorf("SentAt, DeliveredAt = %v, %v, want one 1ms hop ending now (%v)",
			sentAt, deliveredAt, sim.Now())
	}
}

// TestResendChainZeroAlloc re-sends one delivered packet along a 6-hop
// chain, each node rewriting its endpoints and sending it on the way the
// scale watermark relays do, and pins every hop to zero allocations: each
// re-send's copy is the packet the previous hop's delivery recycled.
func TestResendChainZeroAlloc(t *testing.T) {
	const hops = 6
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	ids := make([]netsim.NodeID, hops+1)
	for i := range ids {
		ids[i] = netsim.NodeID("n" + strconv.Itoa(i))
	}
	var lastHdr netsim.Header
	var lastHop time.Duration
	for i, id := range ids {
		var h netsim.Handler
		if i < hops {
			next := ids[i+1]
			h = netsim.HandlerFunc(func(n *netsim.Network, pkt *netsim.Packet) {
				pkt.Header.Src, pkt.Header.Dst = id, next
				if err := n.Send(pkt); err != nil {
					t.Error(err)
				}
			})
		} else {
			h = netsim.HandlerFunc(func(_ *netsim.Network, pkt *netsim.Packet) {
				lastHdr, lastHop = pkt.Header, pkt.DeliveredAt-pkt.SentAt
			})
		}
		if err := n.AddNode(id, h); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := n.Connect(ids[i-1], id, netsim.Link{Latency: time.Millisecond}); err != nil {
				t.Fatal(err)
			}
		}
	}
	pkt := &netsim.Packet{Payload: []byte("watermark-payload")}
	chain := func() {
		pkt.Header = netsim.Header{Src: ids[0], Dst: ids[1], Flow: "wm", Proto: netsim.ProtoUDP}
		if err := n.Send(pkt); err != nil {
			t.Fatal(err)
		}
		for sim.Step() {
		}
	}
	chain() // warm the event slab and the free list
	delivered := n.Delivered
	allocs := testing.AllocsPerRun(1000, chain)
	if perHop, want := allocs/hops, takeAllocs(); perHop != want {
		t.Errorf("re-sent packet allocs/hop = %v, want %v", perHop, want)
	}
	if got := n.Delivered - delivered; got != 1001*hops {
		t.Errorf("delivered %d packets over 1001 chains, want %d", got, 1001*hops)
	}
	if lastHdr.Src != ids[hops-1] || lastHdr.Dst != ids[hops] || lastHdr.Flow != "wm" {
		t.Errorf("chain ended with %q→%q on %q, want the re-sent packet %q→%q on wm",
			lastHdr.Src, lastHdr.Dst, lastHdr.Flow, ids[hops-1], ids[hops])
	}
	if lastHop != time.Millisecond {
		t.Errorf("last hop took %v, want 1ms", lastHop)
	}
}

// TestSendSteadyStateAllocs pins the common un-faulted case — Send with
// no taps and no fault hook, packet delivered and handled — to at most
// 2 allocations per packet (currently 0: Send's copy comes from the free
// list and rides the typed delivery event).
func TestSendSteadyStateAllocs(t *testing.T) {
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	for _, id := range []netsim.NodeID{"src", "dst"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect("src", "dst", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f", Proto: netsim.ProtoTCP},
		Payload: []byte("steady-state-payload"),
	}
	send := func() {
		if err := n.Send(pkt); err != nil {
			t.Fatal(err)
		}
		for sim.Step() {
		}
	}
	send() // warm the event slab
	allocs := testing.AllocsPerRun(1000, send)
	if allocs > 2 {
		t.Errorf("steady-state Send+deliver allocs/op = %v, want <= 2", allocs)
	}
}

// TestSendTappedSteadyStateAllocs pins the tapped path to zero
// steady-state allocations: observation snapshots reuse one per-network
// buffer (Packet.cloneInto), so adding a wiretap no longer costs
// 432 B / 6 allocs per packet as it did when each observation point
// cloned. A netsimscribble build allows the one packet Send takes.
func TestSendTappedSteadyStateAllocs(t *testing.T) {
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	for _, id := range []netsim.NodeID{"src", "dst"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.AttachTap(id, &nullTap{}); err != nil {
			t.Fatal(err)
		}
	}
	if err := n.Connect("src", "dst", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f", Proto: netsim.ProtoTCP},
		Payload: []byte("steady-state-payload"),
	}
	send := func() {
		if err := n.Send(pkt); err != nil {
			t.Fatal(err)
		}
		for sim.Step() {
		}
	}
	send() // warm the event slab, the free list and the snapshot buffers
	allocs := testing.AllocsPerRun(1000, send)
	if want := takeAllocs(); allocs != want {
		t.Errorf("steady-state tapped Send allocs/op = %v, want %v", allocs, want)
	}
}

// TestAppendNeighborsZeroAlloc pins the probe hot path's neighbor scan
// to zero allocations once the scratch buffer has grown to the degree.
func TestAppendNeighborsZeroAlloc(t *testing.T) {
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	if err := n.AddNode("hub", nil); err != nil {
		t.Fatal(err)
	}
	for _, id := range []netsim.NodeID{"a", "b", "c", "d", "e"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
		if err := n.Connect("hub", id, netsim.Link{}); err != nil {
			t.Fatal(err)
		}
	}
	var buf []netsim.NodeID
	buf = n.AppendNeighbors("hub", buf[:0]) // grow once
	allocs := testing.AllocsPerRun(1000, func() {
		buf = n.AppendNeighbors("hub", buf[:0])
	})
	if allocs != 0 {
		t.Errorf("AppendNeighbors allocs/op = %v, want 0", allocs)
	}
	if len(buf) != 5 {
		t.Errorf("AppendNeighbors returned %d neighbors, want 5", len(buf))
	}
}

// TestFlowEmitAllocs pins a steady-state Flow emit, over a
// bandwidth-capped link and including its delivery and self-reschedule,
// to zero allocations. The route is resolved once, on the first emit,
// the link occupancy slot is reused, and the packet is the one the
// previous delivery put back on the partition's free list. A
// netsimscribble build never reuses a packet, so there the pin is
// exactly one: the packet.
func TestFlowEmitAllocs(t *testing.T) {
	sim := netsim.NewSimulator(1)
	n := netsim.NewNetwork(sim)
	for _, id := range []netsim.NodeID{"src", "dst"} {
		if err := n.AddNode(id, nil); err != nil {
			t.Fatal(err)
		}
	}
	link := netsim.Link{Latency: time.Millisecond, BandwidthBps: 100_000_000}
	if err := n.Connect("src", "dst", link); err != nil {
		t.Fatal(err)
	}
	const gap = time.Millisecond
	f := &netsim.Flow{Net: n, Src: "src", Dst: "dst", ID: "f",
		Pattern: &netsim.CBR{Gap: gap, Size: 500}, Until: time.Hour}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	sim.RunUntil(10 * gap) // route the flow, warm the slab
	sent := f.Sent()
	allocs := testing.AllocsPerRun(1000, func() { sim.RunUntil(sim.Now() + gap) })
	if want := takeAllocs(); allocs != want {
		t.Errorf("steady-state Flow emit allocs/op = %v, want %v", allocs, want)
	}
	if got := f.Sent() - sent; got != 1001 {
		t.Errorf("flow sent %d packets over 1001 gaps, want 1001", got)
	}
}
