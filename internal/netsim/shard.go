package netsim

// The simulation engine. A ShardedNetwork partitions the node set at
// build time, gives every partition its own Simulator (4-ary heap slab,
// clock, step counter) and Network view (private link-occupancy slice,
// counters and tap snapshot over the one dense topology table all views
// share, read-only once frozen), and runs the partitions concurrently
// under conservative-lookahead synchronization (see barrier.go). One
// partition is the serial case: NewSimulator builds such a run, and its
// Simulator.Run is the plain event loop. The crucial property, stronger
// than classic PDES determinism: results are identical for a fixed seed
// at ANY partition count and ANY worker count, because every observable
// draw and ordering key derives from the node that makes it, never from
// the partition that hosts it:
//
//   - sequence keys (event tie-breaks) are (origin node index, per-node
//     counter) pairs packed into an int64 — globally unique, so
//     same-time events never tie and merge order cannot matter. Events
//     scheduled outside any node's context take the run itself as their
//     origin (see noOrigin);
//   - loss, jitter, fault, and traffic-pattern draws come from per-node
//     streams consumed in that node's event order;
//   - packet IDs are (source node index, per-source counter) pairs.
//
// Partition count then only decides WHERE an event executes, never what
// it computes, so the merged (at, seq) trace is invariant.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"
)

// Sharded-simulation errors.
var (
	// ErrFrozen: topology mutation after Freeze.
	ErrFrozen = errors.New("netsim: sharded network already frozen")
	// ErrZeroLookahead: a cross-partition link has zero latency, leaving
	// no safe synchronization window.
	ErrZeroLookahead = errors.New("netsim: cross-partition link with zero latency")
	// ErrWrongPartition: a Send was issued through a partition view that
	// does not own the source node.
	ErrWrongPartition = errors.New("netsim: send from foreign partition view")
	// ErrFaultCoverage: a node the installed fault hook holds no state
	// for (see FaultHook.Covers).
	ErrFaultCoverage = errors.New("netsim: fault hook does not cover node")
	// ErrBadPartition: a partition function returned an out-of-range
	// partition index.
	ErrBadPartition = errors.New("netsim: partition index out of range")
	// ErrLookaheadViolation: an inter-partition message landed inside the
	// window that produced it — a fault hook shortened a delivery below
	// the link latency (e.g. negative ExtraDelay).
	ErrLookaheadViolation = errors.New("netsim: message violates lookahead window")
)

// TraceEntry is one executed event's ordering key. The merged trace of a
// sharded run (sorted by At, then Seq — a total order, since sequence
// keys are globally unique) is the canonical execution order and is
// byte-identical across partition and worker counts.
type TraceEntry struct {
	// At is the event's virtual time.
	At time.Duration
	// Seq is the packed (origin node, counter) sequence key.
	Seq int64
}

// Totals aggregates delivery counters across all partition views.
type Totals struct {
	// Delivered, Dropped, FaultDropped, Duplicated mirror the Network
	// counters of the same names, summed over partitions.
	Delivered, Dropped, FaultDropped, Duplicated int64
}

// Splitmix64-derived stream identifiers, mirroring the
// internal/experiment seeding convention ("netsim" + stream tag).
const (
	streamPartitionRNG int64 = 0x6e657473696d0001
	streamNodeRNG      int64 = 0x6e657473696d0002
)

// splitmix64 is the finalizer from Vigna's SplitMix64 generator — the
// same mix internal/experiment uses for per-trial seeds, duplicated here
// so the simulator core stays dependency-free.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// deriveSeed derives a child seed from a master seed and an index path,
// exactly as internal/experiment.DeriveSeed does.
func deriveSeed(master int64, path ...int64) int64 {
	x := splitmix64(uint64(master))
	for _, idx := range path {
		x = splitmix64(x ^ splitmix64(uint64(idx)))
	}
	return int64(x)
}

// splitmixSource is an 8-byte rand.Source64 running SplitMix64. The
// default math/rand source is a ~5 KB lagged-Fibonacci table — fatal at
// one stream per node on 10^5–10^6 node topologies; this is one word.
type splitmixSource struct{ state uint64 }

// Uint64 implements rand.Source64.
func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Int63 implements rand.Source.
func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed implements rand.Source.
func (s *splitmixSource) Seed(seed int64) { s.state = uint64(seed) }

// newNodeRand returns the seeded per-stream generator used for node and
// partition streams.
func newNodeRand(seed int64) *rand.Rand {
	return rand.New(&splitmixSource{state: uint64(seed)})
}

// fnv64a is FNV-1a over the id bytes — allocation-free (hash/fnv's
// object form escapes) and stable across runs and processes.
func fnv64a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// nodeState is one node's entry in the run's per-node table: its
// partition, its private RNG stream, and the counters its sequence keys
// and packet IDs come from.
type nodeState struct {
	rng      *rand.Rand
	part     int32
	seq, pkt uint32
}

// ShardedNetwork is one simulation run, partitioned for parallel
// execution. Build it (AddNode / Connect / AttachTap / SetFaults), call
// Freeze, then Run or RunUntil with a worker count. Handlers, flows, and
// taps run unchanged: each node's events execute on the partition that
// owns it, and any state shared by nodes in different partitions (a tap
// attached to two such nodes, a handler closure spanning them) would be
// accessed concurrently — keep per-object state within one node, or
// partition by the same function the network uses.
//
// Not safe for concurrent use by callers; parallelism is internal to
// Run/RunUntil.
type ShardedNetwork struct {
	seed   int64
	parts  int
	partFn func(NodeID) int

	// topo is the topology table every partition view shares; state is
	// the run's per-node table, indexed like topo.nodes (AddNode order).
	// A node's counters are written only by the partition owning it
	// (disjoint entries — race-free). setupSeq counts the events
	// scheduled outside any node's context (see seqFor).
	topo     *topology
	state    []nodeState
	setupSeq uint32
	faults   FaultHook

	sims    []*Simulator
	partNet []*Network
	// outbox[src][dst] buffers cross-partition deliveries generated
	// during a window; the barrier drains them. Written only by the src
	// partition's goroutine.
	outbox [][][]event

	frozen    bool
	hasCross  bool
	lookahead time.Duration
	budget    int64

	// trace, when non-nil, records executed (at, seq) keys per partition.
	trace [][]TraceEntry

	// werrs is the reusable per-partition error scratch for the barrier.
	werrs []error
}

// NewShardedNetwork returns an empty sharded network with the given
// number of partitions. Nodes are assigned to partitions by a stable
// hash of their ID unless SetPartitionFunc installs an explicit map. All
// per-node randomness derives from seed, independent of the partition
// count.
func NewShardedNetwork(seed int64, partitions int) *ShardedNetwork {
	if partitions < 1 {
		partitions = 1
	}
	o := &ShardedNetwork{
		seed:  seed,
		parts: partitions,
		topo:  newTopology(),
		werrs: make([]error, partitions),
	}
	o.outbox = make([][][]event, partitions)
	for p := 0; p < partitions; p++ {
		sim := &Simulator{
			rng: newNodeRand(deriveSeed(seed, streamPartitionRNG, int64(p))),
			run: o,
			cur: noOrigin,
		}
		net := &Network{sim: sim, run: o, part: int32(p), topo: o.topo}
		sim.net = net
		o.sims = append(o.sims, sim)
		o.partNet = append(o.partNet, net)
		o.outbox[p] = make([][]event, partitions)
	}
	return o
}

// Partitions returns the partition count.
func (o *ShardedNetwork) Partitions() int { return o.parts }

// Lookahead returns the synchronization window width: the minimum
// latency over cross-partition links. It is zero before Freeze, and
// stays zero when no link crosses a partition boundary — partitions
// then run unsynchronized to completion.
func (o *ShardedNetwork) Lookahead() time.Duration { return o.lookahead }

// SetPartitionFunc installs an explicit node→partition map, replacing
// the default ID hash. Must be called before any AddNode.
func (o *ShardedNetwork) SetPartitionFunc(fn func(NodeID) int) error {
	if len(o.topo.nodes) > 0 {
		return fmt.Errorf("%w: partition function set after nodes added", ErrFrozen)
	}
	o.partFn = fn
	return nil
}

// partitionFor resolves a node's partition.
func (o *ShardedNetwork) partitionFor(id NodeID) (int, error) {
	if o.partFn != nil {
		p := o.partFn(id)
		if p < 0 || p >= o.parts {
			return 0, fmt.Errorf("%w: %d for %q (have %d partitions)", ErrBadPartition, p, id, o.parts)
		}
		return p, nil
	}
	return int(fnv64a(string(id)) % uint64(o.parts)), nil
}

// AddNode registers a node, assigns it a partition and a private
// splitmix64 RNG stream derived from (seed, node index). Node index is
// AddNode order, so a topology built in a fixed order draws identically
// whatever the partition count. A node the installed fault hook does not
// cover is refused with ErrFaultCoverage.
func (o *ShardedNetwork) AddNode(id NodeID, h Handler) error {
	if o.frozen {
		return ErrFrozen
	}
	if o.faults != nil && !o.faults.Covers(id) {
		return fmt.Errorf("%w: %q", ErrFaultCoverage, id)
	}
	p, err := o.partitionFor(id)
	if err != nil {
		return err
	}
	idx, err := o.topo.addNode(id, h)
	if err != nil {
		return err
	}
	o.state = append(o.state, nodeState{
		rng:  newNodeRand(deriveSeed(o.seed, streamNodeRNG, int64(idx))),
		part: int32(p),
	})
	return nil
}

// Connect joins two nodes exactly as Network.Connect does; the link is
// visible from every partition view.
func (o *ShardedNetwork) Connect(a, b NodeID, link Link) error {
	if o.frozen {
		return ErrFrozen
	}
	return o.topo.connect(a, b, link)
}

// AttachTap registers a passive observer at a node. The tap executes on
// the partition owning the node; a tap object shared by nodes in
// different partitions would race (see type comment).
func (o *ShardedNetwork) AttachTap(id NodeID, t Tap) error {
	if o.frozen {
		return ErrFrozen
	}
	return o.topo.attachTap(id, t)
}

// Nodes returns every node ID in AddNode order.
func (o *ShardedNetwork) Nodes() []NodeID {
	ids := make([]NodeID, len(o.topo.nodes))
	for i := range o.topo.nodes {
		ids[i] = o.topo.nodes[i].id
	}
	return ids
}

// SetFaults installs a fault hook on the run; nil removes it. The hook
// must cover every node already added (ErrFaultCoverage names the first
// that is not, in AddNode order), and AddNode refuses uncovered nodes
// while it is installed.
func (o *ShardedNetwork) SetFaults(h FaultHook) error {
	if h != nil {
		for i := range o.topo.nodes {
			if id := o.topo.nodes[i].id; !h.Covers(id) {
				return fmt.Errorf("%w: %q", ErrFaultCoverage, id)
			}
		}
	}
	o.faults = h
	return nil
}

// Freeze seals the topology and computes the lookahead window (minimum
// latency over cross-partition links). A cross-partition link with zero
// latency is rejected: it would leave no safe window, and the error names
// the first such link in Connect order. Freeze is idempotent; Run calls
// it implicitly.
func (o *ShardedNetwork) Freeze() error {
	if o.frozen {
		return nil
	}
	la := time.Duration(math.MaxInt64)
	cross := false
	for i := range o.topo.links {
		le := &o.topo.links[i]
		if o.state[le.ends[0]].part == o.state[le.ends[1]].part {
			continue
		}
		if le.Latency <= 0 {
			a, b := o.topo.nodes[le.ends[0]].id, o.topo.nodes[le.ends[1]].id
			if a > b {
				a, b = b, a
			}
			return fmt.Errorf("%w: %q-%q", ErrZeroLookahead, a, b)
		}
		cross = true
		if le.Latency < la {
			la = le.Latency
		}
	}
	o.hasCross = cross
	if cross {
		o.lookahead = la
	}
	o.frozen = true
	return nil
}

// seqFor mints the next sequence key for events originated by the node
// at dense index idx: the node index in the high 32 bits, its private
// counter in the low 32. Keys are globally unique and depend only on the
// node's own event history — never on the partition layout. idx is
// noOrigin for events scheduled outside any node's context: they count
// on the run's own setupSeq, and their keys (high bits -1) sort before
// every node's. In a run of several partitions the counter is shared, so
// schedule such events only outside Run; give work that runs inside a
// parallel window a node with ScheduleNode.
func (o *ShardedNetwork) seqFor(idx int32) int64 {
	if idx == noOrigin {
		o.setupSeq++
		return int64(noOrigin)<<32 | int64(o.setupSeq)
	}
	st := &o.state[idx]
	st.seq++
	return int64(idx)<<32 | int64(st.seq)
}

// deliver routes a stamped packet delivery: into the source partition's
// own queue when the destination is local, into the outbox for the
// barrier to merge when it is remote. The sequence key is minted here,
// in source order, so local and remote deliveries share one key stream.
func (o *ShardedNetwork) deliver(at time.Duration, srcIdx, dstIdx int32, pkt *Packet, dup bool) error {
	srcPart := o.state[srcIdx].part
	dstPart := o.state[dstIdx].part
	ev := event{
		at:  at,
		seq: o.seqFor(srcIdx),
		eventBody: eventBody{
			owner: dstIdx,
			del: delivery{
				net:       o.partNet[dstPart],
				pkt:       pkt,
				dst:       dstIdx,
				duplicate: dup,
			},
		},
	}
	if srcPart == dstPart {
		return o.sims[srcPart].pushEvent(ev)
	}
	o.outbox[srcPart][dstPart] = append(o.outbox[srcPart][dstPart], ev)
	return nil
}

// NodeRand returns the node's private seeded stream. Experiment code
// that draws randomness "at" a node (probe schedules, measurement
// noise) should use this stream so results stay partition-invariant.
func (o *ShardedNetwork) NodeRand(id NodeID) (*rand.Rand, error) {
	idx, ok := o.topo.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return o.state[idx].rng, nil
}

// PartitionNet returns the partition view owning id — the *Network on
// which that node's flows are built and sends issued.
func (o *ShardedNetwork) PartitionNet(id NodeID) (*Network, error) {
	idx, ok := o.topo.index[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return o.partNet[o.state[idx].part], nil
}

// ScheduleNode queues fn to run delay from the owning partition's
// current time, in id's context: the event's sequence key comes from
// id's counter and fn executes on id's partition.
func (o *ShardedNetwork) ScheduleNode(id NodeID, delay time.Duration, fn func()) error {
	idx, ok := o.topo.index[id]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownNode, id)
	}
	return o.partNet[o.state[idx].part].scheduleNode(idx, delay, fn)
}

// SetStepBudget caps the run's total step count, like
// Simulator.SetStepBudget. The cap is checked at window boundaries, so
// a run may overshoot by up to one window per partition — deterministic
// for a fixed partition count, and still a firm runaway guard.
func (o *ShardedNetwork) SetStepBudget(n int64) { o.budget = n }

// Exhausted reports whether the step budget is spent with events still
// queued.
func (o *ShardedNetwork) Exhausted() bool {
	return o.budget > 0 && o.steps() >= o.budget && o.pending() > 0
}

// Steps returns the total events executed across partitions.
func (o *ShardedNetwork) Steps() int64 { return o.steps() }

func (o *ShardedNetwork) steps() int64 {
	var n int64
	for _, s := range o.sims {
		n += s.steps
	}
	return n
}

// Pending returns the total queued events across partitions (outboxes
// are empty between runs).
func (o *ShardedNetwork) Pending() int { return o.pending() }

func (o *ShardedNetwork) pending() int {
	n := 0
	for _, s := range o.sims {
		n += s.queue.len()
	}
	return n
}

// Now returns the most advanced partition clock. After RunUntil all
// partitions sit exactly at the deadline.
func (o *ShardedNetwork) Now() time.Duration {
	var max time.Duration
	for _, s := range o.sims {
		if s.now > max {
			max = s.now
		}
	}
	return max
}

// Totals sums the delivery counters over all partition views.
func (o *ShardedNetwork) Totals() Totals {
	var t Totals
	for _, n := range o.partNet {
		t.Delivered += n.Delivered
		t.Dropped += n.Dropped
		t.FaultDropped += n.FaultDropped
		t.Duplicated += n.Duplicated
	}
	return t
}

// EnableTrace turns on (at, seq) trace recording for subsequent runs.
func (o *ShardedNetwork) EnableTrace() {
	if o.trace == nil {
		o.trace = make([][]TraceEntry, o.parts)
	}
}

// Trace returns the merged execution trace in canonical (At, Seq) order.
// Windows never overlap in time and sequence keys are globally unique,
// so this order is total and matches causal execution order.
func (o *ShardedNetwork) Trace() []TraceEntry {
	total := 0
	for _, t := range o.trace {
		total += len(t)
	}
	out := make([]TraceEntry, 0, total)
	for _, t := range o.trace {
		out = append(out, t...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}
