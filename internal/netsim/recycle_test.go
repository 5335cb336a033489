package netsim_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"lawgate/internal/faults"
	"lawgate/internal/netsim"
)

// packetRecorder is a fault hook that records every packet pointer the
// network transmits and otherwise defers to inner, or injects nothing
// when inner is nil.
type packetRecorder struct {
	inner netsim.FaultHook
	seen  map[*netsim.Packet]bool
}

func (r *packetRecorder) Transmit(src, dst netsim.NodeID, now time.Duration, pkt *netsim.Packet) netsim.Fault {
	r.seen[pkt] = true
	if r.inner == nil {
		return netsim.Fault{}
	}
	return r.inner.Transmit(src, dst, now, pkt)
}

func (r *packetRecorder) Down(id netsim.NodeID, now time.Duration) bool {
	return r.inner != nil && r.inner.Down(id, now)
}

func (r *packetRecorder) Covers(id netsim.NodeID) bool {
	return r.inner == nil || r.inner.Covers(id)
}

// TestFlowPacketsRecycledOnDrop runs 10k flow packets over a link that
// loses half of them, and under the hostile fault profile (fault loss,
// duplicates, reordering and churn at both ends). Every dropped packet
// must go back on the free list: the flow then transmits from a handful
// of packets, and once the run drains every one of them is back on the
// list. In a netsimscribble build nothing is reused, so every
// transmission is a packet of its own and the list stays empty.
func TestFlowPacketsRecycledOnDrop(t *testing.T) {
	const emits = 10_000
	const gap = time.Millisecond
	cases := []struct {
		name    string
		link    netsim.Link
		profile string
	}{
		{"lossy-link", netsim.Link{Latency: time.Millisecond, Loss: 0.5}, ""},
		{"hostile", netsim.Link{Latency: time.Millisecond}, "hostile"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sim := netsim.NewSimulator(11)
			n := netsim.NewNetwork(sim)
			for _, id := range []netsim.NodeID{"src", "dst"} {
				if err := n.AddNode(id, nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.Connect("src", "dst", tc.link); err != nil {
				t.Fatal(err)
			}
			rec := &packetRecorder{seen: make(map[*netsim.Packet]bool)}
			if tc.profile != "" {
				plan, err := faults.Profile(tc.profile)
				if err != nil {
					t.Fatal(err)
				}
				if rec.inner, err = faults.NewPartitioned(plan, 11, n.Nodes()); err != nil {
					t.Fatal(err)
				}
			}
			if err := n.SetFaults(rec); err != nil {
				t.Fatal(err)
			}
			f := &netsim.Flow{Net: n, Src: "src", Dst: "dst", ID: "f",
				Pattern: &netsim.CBR{Gap: gap, Size: 200}, Until: emits * gap}
			if err := f.Start(); err != nil {
				t.Fatal(err)
			}
			sim.Run()
			if f.Sent() != emits {
				t.Fatalf("flow sent %d packets, want %d", f.Sent(), emits)
			}
			if n.Dropped+n.FaultDropped == 0 {
				t.Fatal("nothing was dropped")
			}
			if tc.profile != "" && n.Duplicated == 0 {
				t.Fatal("the hostile profile duplicated nothing")
			}
			if netsim.Scribbled() {
				if n.FreeLen() != 0 || len(rec.seen) < emits/4 {
					t.Errorf("scribble build: free list %d, %d distinct packets transmitted; want 0 and one per transmission",
						n.FreeLen(), len(rec.seen))
				}
				return
			}
			// At most ~26 packets are in flight at once (25 ms of
			// reordering at a 1 ms gap); a drop that leaked its packet
			// would add a fresh one each time.
			if n.FreeLen() > 64 {
				t.Errorf("free list holds %d packets after %d emits, want <= 64", n.FreeLen(), emits)
			}
			if len(rec.seen) > n.FreeLen() {
				t.Errorf("%d distinct packets transmitted but %d back on the free list", len(rec.seen), n.FreeLen())
			}
		})
	}
}

// TestResentFlowPacketNotReleased has a relay re-send every flow packet
// it is handed over a slow link, while the flow keeps emitting faster
// than that link delivers. The relay's packet is recycled as soon as its
// handler returns, and a later emit overwrites it (or, in a
// netsimscribble build, it is poisoned); the copy Send made of it must
// still reach the next hop exactly as the flow made it.
func TestResentFlowPacketNotReleased(t *testing.T) {
	sim := netsim.NewSimulator(12)
	n := netsim.NewNetwork(sim)
	relayed := 0
	relay := netsim.HandlerFunc(func(net *netsim.Network, pkt *netsim.Packet) {
		relayed++
		pkt.Header.Src, pkt.Header.Dst = "relay", "sink"
		if err := net.Send(pkt); err != nil {
			t.Error(err)
		}
	})
	var got []*netsim.Packet
	sink := netsim.HandlerFunc(func(_ *netsim.Network, pkt *netsim.Packet) {
		got = append(got, pkt.Clone())
	})
	if err := n.AddNode("src", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("relay", relay); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("sink", sink); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("src", "relay", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("relay", "sink", netsim.Link{Latency: 20 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	payload := func(i int) []byte { return []byte(fmt.Sprintf("packet-%04d", i)) }
	const emits = 500
	f := &netsim.Flow{Net: n, Src: "src", Dst: "relay", ID: "chain",
		Pattern: &netsim.CBR{Gap: time.Millisecond, Size: 100}, Until: emits * time.Millisecond,
		Payload: payload}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if relayed != emits || len(got) != emits {
		t.Fatalf("relayed %d and delivered %d of %d packets", relayed, len(got), emits)
	}
	for i, p := range got {
		want := netsim.Header{Src: "relay", Dst: "sink", SrcPort: 40000, DstPort: 80,
			Proto: netsim.ProtoTCP, Flow: "chain", SizeBytes: 140}
		if p.Header != want || !bytes.Equal(p.Payload, payload(i)) {
			t.Fatalf("packet %d arrived as %+v %.16q, want %+v %q", i, p.Header, p.Payload, want, payload(i))
		}
		if p.DeliveredAt-p.SentAt != 20*time.Millisecond {
			t.Fatalf("packet %d: sent %v, delivered %v; want the relay hop's 20ms", i, p.SentAt, p.DeliveredAt)
		}
	}
}

// TestSendLeavesCallerPacket checks that Send never writes to the packet
// it is given: the ID, the stamps and the default size land on the
// network's copy, and the caller may rewrite and send the same packet
// again at once, before the first one is delivered.
func TestSendLeavesCallerPacket(t *testing.T) {
	sim := netsim.NewSimulator(13)
	n := netsim.NewNetwork(sim)
	var got []string
	sink := netsim.HandlerFunc(func(_ *netsim.Network, pkt *netsim.Packet) {
		got = append(got, fmt.Sprintf("%s->%s %q size=%d sent=%v delivered=%v",
			pkt.Header.Src, pkt.Header.Dst, pkt.Payload, pkt.Header.SizeBytes, pkt.SentAt, pkt.DeliveredAt))
		if pkt.ID == 0 {
			t.Error("delivered packet carries no ID")
		}
	})
	if err := n.AddNode("src", nil); err != nil {
		t.Fatal(err)
	}
	if err := n.AddNode("dst", sink); err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("src", "dst", netsim.Link{Latency: 5 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	pkt := &netsim.Packet{
		Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f", Proto: netsim.ProtoUDP},
		Payload: []byte("first"),
	}
	before := *pkt
	if err := n.Send(pkt); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*pkt, before) {
		t.Fatalf("Send wrote to the caller's packet: %+v, was %+v", *pkt, before)
	}
	pkt.Payload = []byte("second-packet")
	if err := sim.Schedule(time.Millisecond, func() {
		if err := n.Send(pkt); err != nil {
			t.Error(err)
		}
	}); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	want := []string{
		`src->dst "first" size=45 sent=0s delivered=5ms`,
		`src->dst "second-packet" size=53 sent=1ms delivered=6ms`,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("deliveries:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if pkt.ID != 0 || pkt.SentAt != 0 || pkt.DeliveredAt != 0 || pkt.Header.SizeBytes != 0 {
		t.Errorf("caller's packet stamped: ID %d, SentAt %v, DeliveredAt %v, SizeBytes %d",
			pkt.ID, pkt.SentAt, pkt.DeliveredAt, pkt.Header.SizeBytes)
	}
}

// TestHandlerSendsToTwoNeighbours has a hub send every flow packet it is
// handed on to two leaves, rewriting only the destination between the
// two sends. Each leaf must receive every packet intact, addressed to
// itself, with a stamp of its own.
func TestHandlerSendsToTwoNeighbours(t *testing.T) {
	sim := netsim.NewSimulator(14)
	n := netsim.NewNetwork(sim)
	hub := netsim.HandlerFunc(func(net *netsim.Network, pkt *netsim.Packet) {
		pkt.Header.Src = "hub"
		for _, leaf := range []netsim.NodeID{"left", "right"} {
			pkt.Header.Dst = leaf
			if err := net.Send(pkt); err != nil {
				t.Error(err)
			}
		}
	})
	got := make(map[netsim.NodeID][]string)
	ids := make(map[int64]bool)
	leaf := func(id netsim.NodeID) netsim.Handler {
		return netsim.HandlerFunc(func(_ *netsim.Network, pkt *netsim.Packet) {
			got[id] = append(got[id], fmt.Sprintf("%s->%s %s", pkt.Header.Src, pkt.Header.Dst, pkt.Payload))
			if ids[pkt.ID] {
				t.Errorf("packet ID %d delivered twice", pkt.ID)
			}
			ids[pkt.ID] = true
		})
	}
	nodes := []struct {
		id netsim.NodeID
		h  netsim.Handler
	}{{"src", nil}, {"hub", hub}, {"left", leaf("left")}, {"right", leaf("right")}}
	for _, nd := range nodes {
		if err := n.AddNode(nd.id, nd.h); err != nil {
			t.Fatal(err)
		}
	}
	links := []struct {
		a, b    netsim.NodeID
		latency time.Duration
	}{{"src", "hub", time.Millisecond}, {"hub", "left", 3 * time.Millisecond}, {"hub", "right", 7 * time.Millisecond}}
	for _, l := range links {
		if err := n.Connect(l.a, l.b, netsim.Link{Latency: l.latency}); err != nil {
			t.Fatal(err)
		}
	}
	const emits = 300
	f := &netsim.Flow{Net: n, Src: "src", Dst: "hub", ID: "fan",
		Pattern: &netsim.CBR{Gap: time.Millisecond, Size: 64}, Until: emits * time.Millisecond,
		Payload: func(i int) []byte { return []byte(fmt.Sprintf("packet-%04d", i)) }}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	for _, id := range []netsim.NodeID{"left", "right"} {
		if len(got[id]) != emits {
			t.Fatalf("%s received %d packets, want %d", id, len(got[id]), emits)
		}
		for i, line := range got[id] {
			if want := fmt.Sprintf("hub->%s packet-%04d", id, i); line != want {
				t.Fatalf("%s packet %d arrived as %q, want %q", id, i, line, want)
			}
		}
	}
}

// runPooledPartitions runs flows inside each of two node groups, a flow
// between them, and a relay in each group that re-sends what it is
// handed, at the given partition count (group g goes to partition
// g mod partitions). Beside the flows, a plain Send source h0 feeds a
// chain h1, h2, h3 whose handlers re-send every packet to the next
// hop, so at two partitions each hop crosses a partition boundary. It
// returns every delivery each node saw, as text.
func runPooledPartitions(t *testing.T, partitions, workers int, hostile bool) map[netsim.NodeID][]string {
	t.Helper()
	o := netsim.NewShardedNetwork(0xfee1, partitions)
	if err := o.SetPartitionFunc(func(id netsim.NodeID) int {
		return int(id[len(id)-1]-'0') % partitions
	}); err != nil {
		t.Fatal(err)
	}
	// Each node appends only to its own log, so partitions never share
	// one; the map itself is only read while the run goes.
	logs := make(map[netsim.NodeID]*[]string)
	record := func(log *[]string, pkt *netsim.Packet) {
		*log = append(*log, fmt.Sprintf("%d %+v %q %v %v %v",
			pkt.ID, pkt.Header, pkt.Payload, pkt.Encrypted, pkt.SentAt, pkt.DeliveredAt))
	}
	for g := 0; g < 2; g++ {
		a, b, c := netsim.NodeID(fmt.Sprintf("a%d", g)), netsim.NodeID(fmt.Sprintf("b%d", g)), netsim.NodeID(fmt.Sprintf("c%d", g))
		bLog, cLog := new([]string), new([]string)
		logs[b], logs[c] = bLog, cLog
		relay := netsim.HandlerFunc(func(n *netsim.Network, pkt *netsim.Packet) {
			record(bLog, pkt)
			if pkt.Header.Src != a {
				return
			}
			pkt.Header.Src, pkt.Header.Dst = b, c
			_ = n.Send(pkt)
		})
		if err := o.AddNode(a, nil); err != nil {
			t.Fatal(err)
		}
		if err := o.AddNode(b, relay); err != nil {
			t.Fatal(err)
		}
		if err := o.AddNode(c, netsim.HandlerFunc(func(_ *netsim.Network, pkt *netsim.Packet) { record(cLog, pkt) })); err != nil {
			t.Fatal(err)
		}
		if err := o.Connect(a, b, netsim.Link{Latency: time.Millisecond, Jitter: time.Millisecond, Loss: 0.1}); err != nil {
			t.Fatal(err)
		}
		if err := o.Connect(b, c, netsim.Link{Latency: 3 * time.Millisecond, BandwidthBps: 2_000_000}); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.Connect("b0", "b1", netsim.Link{Latency: 2 * time.Millisecond, Loss: 0.1}); err != nil {
		t.Fatal(err)
	}
	chain := []netsim.NodeID{"h0", "h1", "h2", "h3"}
	for i, id := range chain {
		log := new([]string)
		logs[id] = log
		var h netsim.Handler = netsim.HandlerFunc(func(_ *netsim.Network, pkt *netsim.Packet) { record(log, pkt) })
		if i > 0 && i+1 < len(chain) {
			next := chain[i+1]
			h = netsim.HandlerFunc(func(n *netsim.Network, pkt *netsim.Packet) {
				record(log, pkt)
				pkt.Header.Src, pkt.Header.Dst = id, next
				_ = n.Send(pkt)
			})
		}
		if err := o.AddNode(id, h); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			link := netsim.Link{Latency: time.Millisecond, Jitter: 2 * time.Millisecond, Loss: 0.05}
			if err := o.Connect(chain[i-1], id, link); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hostile {
		plan, err := faults.Profile("hostile")
		if err != nil {
			t.Fatal(err)
		}
		hook, err := faults.NewPartitioned(plan, 0xfee1, o.Nodes())
		if err != nil {
			t.Fatal(err)
		}
		if err := o.SetFaults(hook); err != nil {
			t.Fatal(err)
		}
	}
	flows := []struct {
		src, dst netsim.NodeID
		id       netsim.FlowID
	}{{"a0", "b0", "in-0"}, {"a1", "b1", "in-1"}, {"b0", "b1", "across"}}
	for _, fl := range flows {
		pn, err := o.PartitionNet(fl.src)
		if err != nil {
			t.Fatal(err)
		}
		id := fl.id
		f := &netsim.Flow{Net: pn, Src: fl.src, Dst: fl.dst, ID: id,
			Pattern: &netsim.Poisson{MeanGap: 500 * time.Microsecond, Size: 300},
			Until:   2 * time.Second,
			Payload: func(i int) []byte { return []byte(fmt.Sprintf("%s/%d", id, i)) }}
		if err := f.Start(); err != nil {
			t.Fatal(err)
		}
	}
	src, err := o.PartitionNet("h0")
	if err != nil {
		t.Fatal(err)
	}
	sent := 0
	var emit func()
	emit = func() {
		if err := src.Send(&netsim.Packet{
			Header:  netsim.Header{Src: "h0", Dst: "h1", Flow: "chain", Proto: netsim.ProtoUDP},
			Payload: []byte(fmt.Sprintf("chain/%d", sent)),
		}); err != nil {
			t.Error(err)
		}
		sent++
		if sent < 2000 {
			_ = src.Sim().Schedule(time.Millisecond, emit)
		}
	}
	if err := o.ScheduleNode("h0", time.Millisecond, emit); err != nil {
		t.Fatal(err)
	}
	if err := o.RunUntil(3*time.Second, workers); err != nil {
		t.Fatal(err)
	}
	if !netsim.Scribbled() {
		views := make(map[*netsim.Network]bool)
		for _, id := range o.Nodes() {
			pn, err := o.PartitionNet(id)
			if err != nil {
				t.Fatal(err)
			}
			views[pn] = true
		}
		free := 0
		for pn := range views {
			free += pn.FreeLen()
		}
		if free == 0 {
			t.Fatal("no flow packet came back to a free list")
		}
	}
	seen := make(map[netsim.NodeID][]string, len(logs))
	for id, log := range logs {
		seen[id] = *log
	}
	return seen
}

// TestPooledPacketsPartitionInvariance checks that recycling packets
// keeps every delivery byte-identical, field for field, at one
// partition and at two, with one worker or two, with and without the
// hostile fault profile. At two partitions the cross flow's packets,
// and every hop of the re-send chain, are recycled into the receiving
// partition's free list.
func TestPooledPacketsPartitionInvariance(t *testing.T) {
	for _, hostile := range []bool{false, true} {
		base := runPooledPartitions(t, 1, 1, hostile)
		for _, id := range []netsim.NodeID{"b0", "b1", "c0", "c1", "h1", "h2", "h3"} {
			if len(base[id]) < 200 {
				t.Fatalf("hostile=%v: %s saw %d deliveries, want a busy run", hostile, id, len(base[id]))
			}
		}
		for _, workers := range []int{1, 2} {
			got := runPooledPartitions(t, 2, workers, hostile)
			if !reflect.DeepEqual(got, base) {
				for id, want := range base {
					if !reflect.DeepEqual(got[id], want) {
						t.Errorf("hostile=%v workers=%d: deliveries at %s differ from one partition", hostile, workers, id)
					}
				}
			}
		}
	}
}
