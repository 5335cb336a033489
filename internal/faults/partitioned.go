package faults

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/netsim"
)

// Stats counts what the fault hook actually did to a run. Together with
// the network's own counters it lets a degraded acquisition report how
// much evidence was lost rather than silently coming up short.
type Stats struct {
	// Dropped counts packets the loss fault discarded.
	Dropped int64
	// Duplicated counts packets given an extra delivery.
	Duplicated int64
	// Delayed counts packets given a reorder delay.
	Delayed int64
	// Outages counts down-phase onsets across all churned nodes whose
	// timelines were materialized.
	Outages int64
}

// Stream constants separating the hook's RNG lineages from each other
// and from the simulation's own streams.
const (
	streamTransmit int64 = 0x6661756c74730001 // "faults"+1
	streamChurn    int64 = 0x6661756c74730002
)

// Partitioned realizes a Plan as a netsim.FaultHook for the nodes of
// one run. Every piece of state is keyed to a node and built up front
// for the declared node set, so decisions are deterministic given
// (plan, seed) and independent of how the run is partitioned:
//
//   - each node's transmit stream derives from (seed, streamTransmit,
//     fnv(id)) and is consumed only by that node's own sends, in that
//     node's event order — partition-invariant by the same argument as
//     the simulator's per-node streams;
//   - each node's churn timeline derives from (seed, streamChurn,
//     fnv(id)) alone, so it is independent of traffic and query order;
//   - stats are per-node and summed on read.
//
// Build it for the topology a trial actually built (netsim's
// Network.Nodes): netsim refuses to install a hook, or add a node, that
// would leave a node uncovered, and a query about an undeclared node
// panics rather than answering "no fault".
type Partitioned struct {
	plan  Plan
	nodes map[netsim.NodeID]*nodeFaults
}

var _ netsim.FaultHook = (*Partitioned)(nil)

// nodeFaults is one node's private fault state.
type nodeFaults struct {
	rng   *rand.Rand // transmit draws for packets this node sends
	tl    *timeline
	stats Stats
}

// NewPartitioned validates the plan and returns a hook covering exactly
// the given nodes. The node list's order is irrelevant; every
// derivation keys on the node ID.
func NewPartitioned(plan Plan, seed int64, nodes []netsim.NodeID) (*Partitioned, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	p := &Partitioned{
		plan:  plan,
		nodes: make(map[netsim.NodeID]*nodeFaults, len(nodes)),
	}
	for _, id := range nodes {
		if _, ok := p.nodes[id]; ok {
			continue
		}
		h := fnv.New64a()
		h.Write([]byte(id))
		nf := &nodeFaults{
			rng: rand.New(rand.NewSource(
				experiment.DeriveSeed(seed, streamTransmit, int64(h.Sum64())))),
		}
		nf.tl = &timeline{
			churn: plan.Churn,
			stats: &nf.stats,
			rng: rand.New(rand.NewSource(
				experiment.DeriveSeed(seed, streamChurn, int64(h.Sum64())))),
			horizon: plan.Churn.Start,
		}
		p.nodes[id] = nf
	}
	return p, nil
}

// Plan returns the plan the hook realizes.
func (p *Partitioned) Plan() Plan { return p.plan }

// Stats sums what the hook has done across all nodes.
func (p *Partitioned) Stats() Stats {
	var s Stats
	for _, nf := range p.nodes {
		s.Dropped += nf.stats.Dropped
		s.Duplicated += nf.stats.Duplicated
		s.Delayed += nf.stats.Delayed
		s.Outages += nf.stats.Outages
	}
	return s
}

// Covers implements netsim.FaultHook.
func (p *Partitioned) Covers(id netsim.NodeID) bool {
	_, ok := p.nodes[id]
	return ok
}

// node returns id's fault state, panicking for a node the hook was not
// built for: answering "no fault" would exempt it silently.
func (p *Partitioned) node(id netsim.NodeID) *nodeFaults {
	nf, ok := p.nodes[id]
	if !ok {
		panic(fmt.Sprintf("faults: node %q not covered by this hook", id))
	}
	return nf
}

// Transmit implements netsim.FaultHook. Draws come from the SOURCE
// node's stream, so they depend only on that node's send history.
func (p *Partitioned) Transmit(src, dst netsim.NodeID, now time.Duration, pkt *netsim.Packet) netsim.Fault {
	var f netsim.Fault
	nf := p.node(src)
	pl := p.plan
	if pl.Loss > 0 && nf.rng.Float64() < pl.Loss {
		nf.stats.Dropped++
		f.Drop = true
		return f
	}
	if pl.Duplicate > 0 && nf.rng.Float64() < pl.Duplicate {
		lag := pl.DuplicateLag
		if lag <= 0 {
			lag = time.Millisecond
		}
		f.Duplicates = []time.Duration{lag}
		nf.stats.Duplicated++
	}
	if pl.Reorder > 0 && pl.ReorderSpread > 0 && nf.rng.Float64() < pl.Reorder {
		f.ExtraDelay = time.Duration(nf.rng.Int63n(int64(pl.ReorderSpread))) + 1
		nf.stats.Delayed++
	}
	f.BandwidthBps = pl.BandwidthBps
	return f
}

// Down implements netsim.FaultHook. Only the node's own timeline is
// touched, and a node's timeline is only ever queried from the
// partition owning it (sends check the source, deliveries the
// destination).
func (p *Partitioned) Down(id netsim.NodeID, now time.Duration) bool {
	nf := p.node(id)
	c := p.plan.Churn
	if !c.Active() || now < c.Start {
		return false
	}
	for _, ex := range c.Exempt {
		if string(id) == ex {
			return false
		}
	}
	return nf.tl.down(now)
}

// Outages returns the node's down windows as [start, end) pairs,
// clipped to [0, until). Exempt nodes and inactive churn yield nil.
// Useful for tests and for explaining a degraded acquisition.
func (p *Partitioned) Outages(id netsim.NodeID, until time.Duration) [][2]time.Duration {
	nf := p.node(id)
	c := p.plan.Churn
	if !c.Active() {
		return nil
	}
	for _, ex := range c.Exempt {
		if string(id) == ex {
			return nil
		}
	}
	nf.tl.extend(until)
	var out [][2]time.Duration
	for _, w := range nf.tl.windows {
		if w[0] >= until {
			break
		}
		end := w[1]
		if end > until {
			end = until
		}
		out = append(out, [2]time.Duration{w[0], end})
	}
	return out
}

// timeline lazily materializes one node's alternating up/down phases.
// Phases are drawn from the node's private RNG in time order only, so
// the schedule is identical however and whenever it is queried.
type timeline struct {
	churn   Churn
	rng     *rand.Rand
	stats   *Stats
	horizon time.Duration      // phases are materialized up to here
	windows [][2]time.Duration // down windows, ascending, non-overlapping
}

// extend materializes phases until the horizon passes t.
func (tl *timeline) extend(t time.Duration) {
	for tl.horizon <= t {
		up := tl.draw(tl.churn.MeanUp)
		down := tl.draw(tl.churn.MeanDown)
		start := tl.horizon + up
		tl.windows = append(tl.windows, [2]time.Duration{start, start + down})
		tl.horizon = start + down
		tl.stats.Outages++
	}
}

// draw samples an exponential phase length with the given mean, floored
// at 1ns so phases always advance the horizon.
func (tl *timeline) draw(mean time.Duration) time.Duration {
	d := time.Duration(tl.rng.ExpFloat64() * float64(mean))
	if d < time.Nanosecond {
		d = time.Nanosecond
	}
	return d
}

// down reports whether t falls inside a down window.
func (tl *timeline) down(t time.Duration) bool {
	tl.extend(t)
	for i := len(tl.windows) - 1; i >= 0; i-- {
		w := tl.windows[i]
		if t >= w[1] {
			return false
		}
		if t >= w[0] {
			return true
		}
	}
	return false
}
