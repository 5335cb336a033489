package netsim

import (
	"errors"
	"fmt"
	"sort"
	"time"
)

// Network errors.
var (
	// ErrUnknownNode: the named node is not in the network.
	ErrUnknownNode = errors.New("netsim: unknown node")
	// ErrNoLink: the two nodes are not directly connected.
	ErrNoLink = errors.New("netsim: no link between nodes")
	// ErrDuplicateNode: the node ID is already taken.
	ErrDuplicateNode = errors.New("netsim: duplicate node")
)

// Handler receives packets delivered to a node. The packet a handler is
// handed is the network's, and is valid only until HandlePacket returns:
// the network then reuses it for a later packet. A handler must copy
// whatever it keeps of a packet (Packet.Clone, or the fields it needs)
// rather than the pointer. Until it returns, the handler may rewrite the
// packet and send it on, to one neighbour or several: Send transmits a
// copy. Each fault-injected duplicate carries its own copy of the
// payload, so a handler may rewrite a payload in place provided its
// sender gave up the buffer (see Send).
type Handler interface {
	// HandlePacket is invoked when a packet arrives at the node.
	HandlePacket(net *Network, pkt *Packet)
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(net *Network, pkt *Packet)

// HandlePacket implements Handler.
func (f HandlerFunc) HandlePacket(net *Network, pkt *Packet) { f(net, pkt) }

var _ Handler = (HandlerFunc)(nil)

// Link models a bidirectional connection.
type Link struct {
	// Latency is the base one-way delay.
	Latency time.Duration
	// Jitter adds a uniform random delay in [0, Jitter).
	Jitter time.Duration
	// Loss is the independent per-packet drop probability in [0, 1].
	Loss float64
	// BandwidthBps, when positive, models serialization: a packet
	// occupies the link for SizeBytes×8/BandwidthBps and packets queue
	// FIFO per direction. Zero means infinite bandwidth.
	BandwidthBps int64
}

// serialization returns how long a packet of the given size occupies the
// link, or zero for an unconstrained link.
func (l Link) serialization(sizeBytes int) time.Duration {
	if l.BandwidthBps <= 0 {
		return 0
	}
	return time.Duration(int64(sizeBytes) * 8 * int64(time.Second) / l.BandwidthBps)
}

// Direction distinguishes tap observations.
type Direction int

// Tap directions.
const (
	// DirOutbound is a packet leaving the tapped node.
	DirOutbound Direction = iota + 1
	// DirInbound is a packet arriving at the tapped node.
	DirInbound
)

// String returns the direction name.
func (d Direction) String() string {
	switch d {
	case DirOutbound:
		return "outbound"
	case DirInbound:
		return "inbound"
	default:
		return fmt.Sprintf("Direction(%d)", int(d))
	}
}

// Tap passively observes traffic at a node. Taps receive snapshots of
// packets so observation cannot perturb delivery; all taps at one
// observation point share a single snapshot, and the network reuses the
// snapshot's buffers across packets. The snapshot is therefore only
// valid for the duration of the Observe call: taps that keep packet data
// must copy what they keep (capture devices already copy the header by
// value and clone payload only under full-wiretap authority).
type Tap interface {
	// Observe is invoked for each packet crossing the tapped node.
	Observe(dir Direction, at time.Duration, pkt *Packet)
}

// Fault describes what the fault layer does to one transmission. The
// zero Fault passes the packet through untouched.
type Fault struct {
	// Drop discards the packet before delivery (on top of the link's
	// own Loss probability).
	Drop bool
	// ExtraDelay postpones delivery; a delay exceeding the gap to later
	// packets reorders them.
	ExtraDelay time.Duration
	// Duplicates schedules extra deliveries of the same packet at these
	// additional offsets after the original delivery time.
	Duplicates []time.Duration
	// BandwidthBps, when positive, caps the link's bandwidth for this
	// packet's serialization: degraded links transmit slower, and a cap
	// on an unconstrained link makes it finite.
	BandwidthBps int64
}

// FaultHook injects failures into a network; internal/faults provides
// the implementation. The hook must keep its state per node: Transmit
// may touch only state keyed by src, Down only state keyed by id. Calls
// about nodes in different partitions then cannot race, and each node's
// answers depend only on that node's own event order, so they are the
// same at every partition count.
type FaultHook interface {
	// Transmit is consulted once per Send, after tap observation at the
	// source and the link's own loss draw.
	Transmit(src, dst NodeID, now time.Duration, pkt *Packet) Fault
	// Down reports whether the node is offline (crashed) at now. A down
	// source transmits nothing; a packet arriving at a down destination
	// is lost.
	Down(id NodeID, now time.Duration) bool
	// Covers reports whether the hook holds fault state for id.
	// SetFaults and AddNode refuse a node the installed hook does not
	// cover, so no node runs silently fault-free.
	Covers(id NodeID) bool
}

// Network is one partition's view of a ShardedNetwork: nodes joined by
// links, driven by the partition's Simulator. The topology table is
// shared by every view of the run, while link occupancy, the counters
// and the snapshot buffer stay private to the partition. Not safe for
// concurrent use (each partition is a single loop).
type Network struct {
	sim  *Simulator
	run  *ShardedNetwork
	part int32
	topo *topology
	// busy is the per-direction link occupancy, indexed 2*link+dir (dir 0
	// when the source is the link's first end). It grows lazily to cover
	// links connected after the view was made.
	busy []time.Duration
	// snap is the reused tap-observation snapshot (see Tap).
	snap Packet
	// free holds packets the partition has finished with (see recycle);
	// Send and Flow.emit take the packets they transmit from it. A packet
	// is recycled by the partition whose goroutine drops or delivers it,
	// so the list needs no lock.
	free []*Packet

	// Delivered counts packets delivered; Dropped counts loss.
	Delivered, Dropped int64
	// FaultDropped counts packets discarded by the fault layer (hook
	// drops plus deliveries to crashed nodes); Duplicated counts extra
	// deliveries the fault layer injected.
	FaultDropped, Duplicated int64
}

// topology is the dense topology table. AddNode assigns each node the
// next int32 index and Connect each new link the next link index; the
// packet path then indexes slices instead of hashing NodeIDs. A
// ShardedNetwork owns one and shares it across its partition views.
type topology struct {
	nodes []node
	index map[NodeID]int32
	links []linkEntry
	// linkIdx maps a packed node-index pair (see pairKey) to its link.
	linkIdx map[uint64]int32
}

// node is one topology entry.
type node struct {
	id      NodeID
	handler Handler
	taps    []Tap
	// adj lists the direct neighbors in ascending order, maintained
	// incrementally by Connect so Neighbors is an O(degree) copy with a
	// deterministic order instead of an O(links) scan with a random one.
	adj []NodeID
}

// linkEntry is one link and the node indices of its ends, in the order
// the first Connect named them.
type linkEntry struct {
	Link
	ends [2]int32
}

// route is a resolved transmission: source, destination and link
// indices into the topology table.
type route struct{ src, dst, link int32 }

func newTopology() *topology {
	return &topology{
		index:   make(map[NodeID]int32),
		linkIdx: make(map[uint64]int32),
	}
}

// pairKey packs an unordered node-index pair into one map key.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// addNode appends a node and returns its index. A nil handler registers
// a sink that discards deliveries.
func (t *topology) addNode(id NodeID, h Handler) (int32, error) {
	if _, ok := t.index[id]; ok {
		return 0, fmt.Errorf("%w: %q", ErrDuplicateNode, id)
	}
	if h == nil {
		h = HandlerFunc(func(*Network, *Packet) {})
	}
	idx := int32(len(t.nodes))
	t.nodes = append(t.nodes, node{id: id, handler: h})
	t.index[id] = idx
	return idx, nil
}

// insertSorted adds id to the ascending neighbor list, keeping order.
func insertSorted(s []NodeID, id NodeID) []NodeID {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	s = append(s, "")
	copy(s[i+1:], s[i:])
	s[i] = id
	return s
}

// connect joins a and b, or replaces the parameters of their existing
// link in place, so resolved routes see the new parameters.
func (t *topology) connect(a, b NodeID, link Link) error {
	var ends [2]int32
	for i, id := range [2]NodeID{a, b} {
		idx, ok := t.index[id]
		if !ok {
			return fmt.Errorf("%w: %q", ErrUnknownNode, id)
		}
		ends[i] = idx
	}
	key := pairKey(ends[0], ends[1])
	if li, ok := t.linkIdx[key]; ok {
		t.links[li].Link = link
		return nil
	}
	t.linkIdx[key] = int32(len(t.links))
	t.links = append(t.links, linkEntry{Link: link, ends: ends})
	t.nodes[ends[0]].adj = insertSorted(t.nodes[ends[0]].adj, b)
	if a != b {
		t.nodes[ends[1]].adj = insertSorted(t.nodes[ends[1]].adj, a)
	}
	return nil
}

// attachTap registers a passive observer at a node.
func (t *topology) attachTap(id NodeID, tap Tap) error {
	idx, ok := t.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	t.nodes[idx].taps = append(t.nodes[idx].taps, tap)
	return nil
}

// adj returns id's ascending neighbor list (shared; callers copy).
func (t *topology) adj(id NodeID) []NodeID {
	idx, ok := t.index[id]
	if !ok {
		return nil
	}
	return t.nodes[idx].adj
}

// NewNetwork returns the network view sim drives. Every simulator
// belongs to one partition of a run, so this is that partition's view;
// for a simulator from NewSimulator it is the whole serial network.
func NewNetwork(sim *Simulator) *Network { return sim.net }

// Sim returns the driving simulator.
func (n *Network) Sim() *Simulator { return n.sim }

// SetFaults installs a fault hook on the whole run, as
// ShardedNetwork.SetFaults does; nil removes it.
func (n *Network) SetFaults(h FaultHook) error { return n.run.SetFaults(h) }

// AddNode registers a node in the run, as ShardedNetwork.AddNode does. A
// nil handler registers a sink that discards deliveries.
func (n *Network) AddNode(id NodeID, h Handler) error { return n.run.AddNode(id, h) }

// Connect joins two nodes with a bidirectional link. Reconnecting an
// existing pair replaces the link's parameters.
func (n *Network) Connect(a, b NodeID, link Link) error { return n.run.Connect(a, b, link) }

// Nodes returns every node ID in AddNode order.
func (n *Network) Nodes() []NodeID { return n.run.Nodes() }

// Linked reports whether a and b are directly connected.
func (n *Network) Linked(a, b NodeID) bool {
	t := n.topo
	ia, okA := t.index[a]
	ib, okB := t.index[b]
	if !okA || !okB {
		return false
	}
	_, ok := t.linkIdx[pairKey(ia, ib)]
	return ok
}

// Neighbors returns the nodes directly linked to id, in ascending order.
// The order is deterministic across runs and processes; the returned
// slice is a copy the caller may keep or mutate.
func (n *Network) Neighbors(id NodeID) []NodeID {
	adj := n.topo.adj(id)
	if len(adj) == 0 {
		return nil
	}
	out := make([]NodeID, len(adj))
	copy(out, adj)
	return out
}

// AppendNeighbors appends id's direct neighbors, in ascending order, to
// dst and returns the extended slice. It is the zero-allocation sibling
// of Neighbors for hot paths that can reuse a scratch buffer: pass
// dst[:0] of a retained slice and no allocation occurs once the buffer
// has grown to the node's degree.
func (n *Network) AppendNeighbors(id NodeID, dst []NodeID) []NodeID {
	return append(dst, n.topo.adj(id)...)
}

// Degree returns the number of nodes directly linked to id without
// copying the neighbor list.
func (n *Network) Degree(id NodeID) int { return len(n.topo.adj(id)) }

// AttachTap registers a passive observer at a node.
func (n *Network) AttachTap(id NodeID, t Tap) error { return n.run.AttachTap(id, t) }

// delivery is the typed payload of a packet-delivery event: everything
// Send previously captured in a per-delivery closure, carried by value
// in the heap entry so a delivery schedules without allocating.
type delivery struct {
	net       *Network
	pkt       *Packet
	dst       int32 // topology index of the destination
	duplicate bool
}

// run executes the delivery at the event's firing time.
func (d delivery) run() {
	n := d.net
	dst, pkt := &n.topo.nodes[d.dst], d.pkt
	// A destination that is down when the packet arrives loses it —
	// crash-while-in-flight.
	if f := n.run.faults; f != nil && f.Down(dst.id, n.sim.Now()) {
		n.FaultDropped++
		n.recycle(pkt)
		return
	}
	pkt.DeliveredAt = n.sim.Now()
	n.Delivered++
	if d.duplicate {
		n.Duplicated++
	}
	n.observe(dst.taps, DirInbound, pkt)
	dst.handler.HandlePacket(n, pkt)
	n.recycle(pkt)
}

// takePacket returns a packet for Send, Flow.emit or a fault duplicate
// to overwrite: one from the partition's free list, or a new one when
// the list is empty.
func (n *Network) takePacket() *Packet {
	k := len(n.free)
	if k == 0 {
		return new(Packet)
	}
	pkt := n.free[k-1]
	n.free = n.free[:k-1]
	return pkt
}

// resolve looks up the route from src to dst: both node indices and the
// link joining them.
func (n *Network) resolve(src, dst NodeID) (route, error) {
	t := n.topo
	s, ok := t.index[src]
	if !ok {
		return route{}, fmt.Errorf("%w: src %q", ErrUnknownNode, src)
	}
	d, ok := t.index[dst]
	if !ok {
		return route{}, fmt.Errorf("%w: dst %q", ErrUnknownNode, dst)
	}
	l, ok := t.linkIdx[pairKey(s, d)]
	if !ok {
		return route{}, fmt.Errorf("%w: %q-%q", ErrNoLink, src, dst)
	}
	return route{src: s, dst: d, link: l}, nil
}

// Send transmits a packet from pkt.Header.Src to pkt.Header.Dst over their
// direct link. The network transmits a copy of *pkt taken from its free
// list, which is stamped (ID, SentAt, DeliveredAt), observed by taps at
// both ends, subjected to loss, and delivered after latency plus jitter.
// Send never writes to pkt, and the caller keeps it: it may reuse or
// rewrite it as soon as Send returns. The payload bytes are shared with
// the copy, not copied, so a caller that rewrites them after Send must
// pass a buffer of its own.
func (n *Network) Send(pkt *Packet) error {
	r, err := n.resolve(pkt.Header.Src, pkt.Header.Dst)
	if err != nil {
		return err
	}
	cp := n.takePacket()
	*cp = *pkt
	return n.send(cp, r)
}

// send is Send over an already resolved route, whose indices must name
// pkt.Header.Src, pkt.Header.Dst and their link. pkt is a packet the
// network owns (see takePacket): send recycles it on every path that does
// not hand it to a delivery.
func (n *Network) send(pkt *Packet, r route) error {
	src := pkt.Header.Src
	// Everything observable — loss and jitter draws, packet IDs, sequence
	// keys — derives from the SOURCE node, not the partition, so a
	// transmission's outcome is independent of how nodes are partitioned.
	o := n.run
	st := &o.state[r.src]
	if st.part != n.part {
		n.recycle(pkt)
		return fmt.Errorf("%w: %q owned by partition %d, sent via partition %d",
			ErrWrongPartition, src, st.part, n.part)
	}
	// A crashed source transmits nothing: the packet never reaches the
	// wire, so taps at either end see nothing and the link RNG stream is
	// not consumed.
	if o.faults != nil && o.faults.Down(src, n.sim.Now()) {
		n.FaultDropped++
		n.recycle(pkt)
		return nil
	}

	st.pkt++
	pkt.ID = int64(r.src+1)<<32 | int64(st.pkt)
	pkt.SentAt = n.sim.Now()
	pkt.DeliveredAt = 0
	if pkt.Header.SizeBytes == 0 {
		pkt.Header.SizeBytes = len(pkt.Payload) + 40 // headers
	}

	t := n.topo
	n.observe(t.nodes[r.src].taps, DirOutbound, pkt)

	le := &t.links[r.link]
	link := le.Link
	rng := o.state[r.src].rng
	if link.Loss > 0 && rng.Float64() < link.Loss {
		n.Dropped++
		n.recycle(pkt)
		return nil
	}
	var fault Fault
	if o.faults != nil {
		fault = o.faults.Transmit(src, pkt.Header.Dst, n.sim.Now(), pkt)
	}
	if fault.Drop {
		n.FaultDropped++
		n.recycle(pkt)
		return nil
	}
	// Serialization: a constrained link transmits one packet at a time
	// per direction; later packets queue behind earlier departures. A
	// fault-layer bandwidth cap tightens (never loosens) the link's own.
	bw := link.BandwidthBps
	if fault.BandwidthBps > 0 && (bw <= 0 || fault.BandwidthBps < bw) {
		bw = fault.BandwidthBps
	}
	departure := n.sim.Now()
	if tx := (Link{BandwidthBps: bw}).serialization(pkt.Header.SizeBytes); tx > 0 {
		slot := 2 * int(r.link)
		if r.src != le.ends[0] {
			slot++
		}
		if slot >= len(n.busy) {
			n.busy = append(n.busy, make([]time.Duration, 2*len(t.links)-len(n.busy))...)
		}
		start := departure
		if n.busy[slot] > start {
			start = n.busy[slot]
		}
		departure = start + tx
		n.busy[slot] = departure
	}
	delay := departure - n.sim.Now() + link.Latency
	if link.Jitter > 0 {
		delay += time.Duration(rng.Int63n(int64(link.Jitter)))
	}
	delay += fault.ExtraDelay
	at := n.sim.Now() + delay
	// The packet rides the first delivery. Each fault-injected duplicate
	// is a packet of its own with its own copy of the payload, so a
	// handler rewriting one delivery's payload in place leaves the
	// others intact.
	if err := o.deliver(at, r.src, r.dst, pkt, false); err != nil {
		n.recycle(pkt)
		return err
	}
	for _, extra := range fault.Duplicates {
		if extra < 0 {
			extra = 0
		}
		dup := n.takePacket()
		pkt.cloneInto(dup)
		if err := o.deliver(at+extra, r.src, r.dst, dup, true); err != nil {
			n.recycle(dup)
			return err
		}
	}
	return nil
}

// scheduleNode queues fn to run delay from now in the context of the
// node at index idx: the event's sequence key is drawn from that node's
// counter and the callback executes with it as the current origin.
func (n *Network) scheduleNode(idx int32, delay time.Duration, fn func()) error {
	return n.sim.pushEvent(event{at: n.sim.now + delay, seq: n.run.seqFor(idx), eventBody: eventBody{fn: fn, owner: idx}})
}

// observe fans a packet snapshot out to the taps at one observation
// point. All taps at the point share a single snapshot whose buffers the
// network reuses across packets (see Tap) — steady-state observation
// allocates nothing — and when the point has no taps no copy is made at
// all.
func (n *Network) observe(taps []Tap, dir Direction, pkt *Packet) {
	if len(taps) == 0 {
		return
	}
	pkt.cloneInto(&n.snap)
	for _, t := range taps {
		t.Observe(dir, n.sim.Now(), &n.snap)
	}
}
