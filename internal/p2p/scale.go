// Swarm-scale timing attack on the sharded simulator. The E2
// reproduction in experiment.go probes a 16-neighbor star; this file
// asks the scaling question the paper's legal analysis leaves to
// engineering: does the no-process timing technique still work when the
// investigator joins a realistic swarm — thousands of peers on a
// preferential-attachment graph, organic query chatter congesting the
// hub links the evidence has to cross?
//
// Peers here speak a compact binary message format instead of the
// overlay's JSON ([kind 1B][qid 4B LE][ttl 1B], zero-padded to the wire
// size), both because a million-packet swarm cannot afford per-packet
// JSON and because responses are reverse-path-routed without
// deduplication (Gnutella query hits), so response trains — not single
// packets — contend for the investigator-facing links.
package p2p

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/netsim"
	"lawgate/internal/netsim/topo"
)

// Scale wire format: [kind][qid uint32 LE][ttl], zero-padded.
const (
	scaleKindQuery    byte = 1
	scaleKindResponse byte = 2
	scaleHdrSize           = 6
	// scaleQuerySize and scaleRespSize are the padded wire sizes; the
	// asymmetry (query hits dwarf queries, as in real filesharing) is
	// what makes response convergence the congestion driver.
	scaleQuerySize = 200
	scaleRespSize  = 1200
)

// scaleBgBit marks background-chatter query IDs so they can never
// collide with probe IDs (probe qids are small and dense).
const scaleBgBit uint32 = 1 << 31

// scaleShareStream derives each swarm peer's hidden-source coin from
// the trial seed, independent of everything else.
const scaleShareStream int64 = 0x7032707363616c65 // "p2pscale"

// scaleMsg encodes one message at its padded wire size.
func scaleMsg(kind byte, qid uint32, ttl byte) []byte {
	size := scaleQuerySize
	if kind == scaleKindResponse {
		size = scaleRespSize
	}
	b := make([]byte, size)
	b[0] = kind
	binary.LittleEndian.PutUint32(b[1:5], qid)
	b[5] = ttl
	return b
}

// ScaleConfig parameterizes the swarm-scale experiment. The swarm size
// itself is the sweep's independent variable and passed separately.
type ScaleConfig struct {
	// Neighbors is how many swarm peers the investigator links to —
	// the oldest (highest-degree) nodes, as a strategic investigator
	// would pick.
	Neighbors int
	// Sources of those neighbors share the contraband key; the rest
	// are forwarders (ground truth for scoring).
	Sources int
	// SourceShare is the fraction of the remaining swarm sharing the
	// key — the hidden sources whose query hits flood back across the
	// investigator's links.
	SourceShare float64
	// Probes is the number of timed probe rounds per neighbor.
	Probes int
	// Reps and Seed drive the sweep's seeded repetitions.
	Reps int
	Seed int64
	// Partitions and Workers select the sharded engine's layout. The
	// experiment's OUTPUT is invariant to both — they only decide where
	// and how parallel the work runs — so sweeps gate determinism by
	// comparing runs at different partition counts.
	Partitions int
	Workers    int
	// Overlay carries the protocol working point (delays, TTL,
	// LinkLatency) shared with the E2 experiments.
	Overlay Config
	// BandwidthBps caps every swarm link; serialization queueing is the
	// congestion mechanism (0 = uncongested control).
	BandwidthBps int64
	// QueryRate is each peer's organic query rate (queries/sec,
	// exponential gaps). Total background load grows linearly with the
	// swarm — the scaling pressure on the evidence channel.
	QueryRate float64
	// BgTTL bounds background-query flooding (default 2; the probe TTL
	// comes from Overlay.TTL).
	BgTTL int
	// RoundGap spaces probe rounds; Tail is the post-probe drain.
	RoundGap time.Duration
	Tail     time.Duration
	// Faults optionally degrades the substrate (partition-safe
	// injector); the investigator is always exempt from churn.
	Faults faults.Plan
	// MaxSteps caps the event count (0 = generous swarm-scaled bound).
	MaxSteps int64
}

// DefaultScaleConfig returns a working point where the attack is clean
// at a few hundred peers and visibly stressed by organic load at a few
// thousand.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Neighbors:    12,
		Sources:      4,
		SourceShare:  0.05,
		Probes:       3,
		Reps:         3,
		Seed:         1,
		Partitions:   1,
		Overlay:      DefaultConfig(ModeAnonymous),
		BandwidthBps: 2_000_000,
		QueryRate:    0.5,
		BgTTL:        2,
		RoundGap:     1500 * time.Millisecond,
		Tail:         2 * time.Second,
	}
}

// scalePeer is one swarm participant on the sharded engine. All its
// mutable state (seen/back maps, scratch, RNG, background counter) is
// touched only by events the peer owns, so it is confined to the
// peer's partition by the engine's ownership invariant.
type scalePeer struct {
	id     netsim.NodeID
	shares bool
	cfg    *ScaleConfig
	net    *netsim.Network // partition-local view
	rng    *rand.Rand      // the peer's private stream (partition-invariant)
	seen   map[uint32]bool
	back   map[uint32]netsim.NodeID
	nbrs   []netsim.NodeID
	bgIdx  uint32 // peer index, baked into background qids
	bgCtr  uint32
	// onResponse receives responses addressed to this peer (set only
	// on the investigator).
	onResponse func(qid uint32, at time.Duration)
}

func (p *scalePeer) artificialDelay() time.Duration {
	span := p.cfg.Overlay.DelayMax - p.cfg.Overlay.DelayMin
	if span <= 0 {
		return p.cfg.Overlay.DelayMin
	}
	return p.cfg.Overlay.DelayMin + time.Duration(p.rng.Int63n(int64(span)))
}

func (p *scalePeer) send(to netsim.NodeID, kind byte, qid uint32, ttl byte) {
	_ = p.net.Send(&netsim.Packet{
		Header: netsim.Header{
			Src: p.id, Dst: to,
			Flow:  "p2p-scale",
			Proto: netsim.ProtoTCP,
		},
		Payload:   scaleMsg(kind, qid, ttl),
		Encrypted: true,
	})
}

// handle processes a delivered swarm packet.
func (p *scalePeer) handle(_ *netsim.Network, pkt *netsim.Packet) {
	if len(pkt.Payload) < scaleHdrSize {
		return
	}
	qid := binary.LittleEndian.Uint32(pkt.Payload[1:5])
	switch pkt.Payload[0] {
	case scaleKindQuery:
		p.handleQuery(pkt.Header.Src, qid, pkt.Payload[5])
	case scaleKindResponse:
		p.handleResponse(qid, pkt.DeliveredAt)
	}
}

func (p *scalePeer) handleQuery(from netsim.NodeID, qid uint32, ttl byte) {
	if p.seen[qid] {
		return
	}
	p.seen[qid] = true
	p.back[qid] = from

	if p.shares {
		delay := p.cfg.Overlay.LookupDelay + p.artificialDelay()
		_ = p.net.Sim().Schedule(delay, func() {
			p.send(from, scaleKindResponse, qid, 0)
		})
		return
	}
	if ttl <= 1 {
		return
	}
	delay := p.artificialDelay()
	p.nbrs = p.net.AppendNeighbors(p.id, p.nbrs[:0])
	for _, friend := range p.nbrs {
		if friend == from {
			continue
		}
		friend := friend // the closures outlive the reused scratch buffer
		_ = p.net.Sim().Schedule(delay, func() {
			p.send(friend, scaleKindQuery, qid, ttl-1)
		})
	}
}

func (p *scalePeer) handleResponse(qid uint32, at time.Duration) {
	if back, ok := p.back[qid]; ok {
		// Reverse-path-route every hit (no dedup): response trains from
		// all reachable sources converge toward the querier, which is
		// exactly the load that stresses the evidence channel at scale.
		p.send(back, scaleKindResponse, qid, 0)
		return
	}
	// The response reached its querier.
	if p.onResponse != nil {
		p.onResponse(qid, at)
	}
}

// background starts the peer's organic query chatter: exponential gaps
// from the peer's own stream, flooding the contraband key at BgTTL.
// The chain self-terminates when the next emission lands past the run
// deadline.
func (p *scalePeer) background(o *netsim.ShardedNetwork, mean time.Duration) error {
	var emit func()
	emit = func() {
		// qid layout: high bit | peer index << 8 | counter low byte —
		// disjoint across peers up to 2^23 nodes; a peer wrapping past
		// 256 background queries collides only with itself (benign:
		// its own seen-dedup suppresses the flood, deterministically).
		qid := scaleBgBit | p.bgIdx<<8 | p.bgCtr&0xff
		p.bgCtr++
		p.seen[qid] = true
		p.nbrs = p.net.AppendNeighbors(p.id, p.nbrs[:0])
		for _, friend := range p.nbrs {
			p.send(friend, scaleKindQuery, qid, byte(p.cfg.BgTTL))
		}
		gap := time.Duration(p.rng.ExpFloat64() * float64(mean))
		_ = p.net.Sim().Schedule(gap, emit)
	}
	first := time.Duration(p.rng.ExpFloat64() * float64(mean))
	return o.ScheduleNode(p.id, first, emit)
}

// scaleProbe is one probe's bookkeeping slot, indexed by qid-1.
type scaleProbe struct {
	neighbor    netsim.NodeID
	sentAt      time.Duration
	respondedAt time.Duration
	responded   bool
}

// RunScaleExperiment runs one swarm-scale trial: build the
// preferential-attachment swarm of the given size on the sharded
// engine, link the investigator to the oldest Neighbors hubs, start
// the organic background load, probe every neighbor Probes times on a
// fixed schedule, and classify from minimum RTTs exactly as the E2
// experiment does. The result depends only on (sc, swarm, seed) —
// never on Partitions or Workers.
func RunScaleExperiment(sc ScaleConfig, swarm int, seed int64) (ExperimentResult, error) {
	if sc.Neighbors <= 0 || swarm < sc.Neighbors+1 || sc.Sources < 0 ||
		sc.Sources > sc.Neighbors || sc.Probes <= 0 || sc.RoundGap <= 0 {
		return ExperimentResult{}, fmt.Errorf("%w: swarm=%d %+v", ErrBadExperiment, swarm, sc)
	}
	if sc.BgTTL <= 0 {
		sc.BgTTL = 2
	}
	parts := sc.Partitions
	if parts <= 0 {
		parts = 1
	}

	g, err := topo.Preferential(topo.PreferentialConfig{
		Nodes:        swarm,
		Edges:        2,
		Seed:         seed,
		Latency:      sc.Overlay.LinkLatency,
		BandwidthBps: sc.BandwidthBps,
	})
	if err != nil {
		return ExperimentResult{}, err
	}

	o := netsim.NewShardedNetwork(seed, parts)
	budget := sc.MaxSteps
	if budget == 0 {
		// A probe floods at most the TTL ball (bounded by the link
		// count); background floods are BgTTL-bounded. Linear headroom
		// in the swarm size is orders of magnitude of slack.
		budget = int64(swarm)*5000 + 5_000_000
	}
	o.SetStepBudget(budget)

	// Build peers first so ApplyTo can wire their handlers.
	peers := make(map[netsim.NodeID]*scalePeer, swarm+1)
	truth := make(map[netsim.NodeID]bool, sc.Neighbors)
	for i, node := range g.Nodes {
		shares := false
		if i < sc.Neighbors {
			shares = i < sc.Sources
			truth[node.ID] = shares
		} else {
			// Hidden sources: a per-peer coin from the trial seed.
			coin := uint64(experiment.DeriveSeed(seed, scaleShareStream, int64(i)))
			shares = float64(coin>>11)/float64(1<<53) < sc.SourceShare
		}
		peers[node.ID] = &scalePeer{
			id: node.ID, shares: shares, cfg: &sc,
			seen: make(map[uint32]bool), back: make(map[uint32]netsim.NodeID),
		}
	}
	if err := g.ApplyTo(o, func(id netsim.NodeID) netsim.Handler {
		return netsim.HandlerFunc(peers[id].handle)
	}); err != nil {
		return ExperimentResult{}, err
	}

	const invID netsim.NodeID = "investigator"
	inv := &scalePeer{
		id: invID, cfg: &sc,
		seen: make(map[uint32]bool), back: make(map[uint32]netsim.NodeID),
	}
	peers[invID] = inv
	if err := o.AddNode(invID, netsim.HandlerFunc(inv.handle)); err != nil {
		return ExperimentResult{}, err
	}
	for k := 0; k < sc.Neighbors; k++ {
		link := netsim.Link{Latency: sc.Overlay.LinkLatency, BandwidthBps: sc.BandwidthBps}
		if err := o.Connect(invID, g.Nodes[k].ID, link); err != nil {
			return ExperimentResult{}, err
		}
	}

	// Bind every peer to its partition-local view and node stream.
	for id, p := range peers {
		if p.net, err = o.PartitionNet(id); err != nil {
			return ExperimentResult{}, err
		}
		if p.rng, err = o.NodeRand(id); err != nil {
			return ExperimentResult{}, err
		}
	}

	var fb *faults.Partitioned
	if sc.Faults.Active() {
		plan := sc.Faults
		plan.Churn.Exempt = append(append([]string{}, plan.Churn.Exempt...), string(invID))
		if fb, err = faults.NewPartitioned(plan, experiment.DeriveSeed(seed, faultStream), o.Nodes()); err != nil {
			return ExperimentResult{}, err
		}
		if err := o.SetFaults(fb); err != nil {
			return ExperimentResult{}, err
		}
	}

	// Background chatter from every swarm peer (not the investigator).
	if sc.QueryRate > 0 {
		mean := time.Duration(float64(time.Second) / sc.QueryRate)
		for i, node := range g.Nodes {
			p := peers[node.ID]
			p.bgIdx = uint32(i)
			if err := p.background(o, mean); err != nil {
				return ExperimentResult{}, err
			}
		}
	}

	// Pre-schedule the probe grid: round r probes every neighbor at
	// r×RoundGap with the deterministic qid r×K + k + 1.
	probes := make([]scaleProbe, sc.Neighbors*sc.Probes)
	invSim := inv.net.Sim()
	inv.onResponse = func(qid uint32, at time.Duration) {
		i := int(qid) - 1
		if qid&scaleBgBit != 0 || i < 0 || i >= len(probes) {
			return
		}
		if !probes[i].responded {
			probes[i].responded = true
			probes[i].respondedAt = at
		}
	}
	ttl := byte(sc.Overlay.TTL)
	if sc.Overlay.TTL <= 0 || sc.Overlay.TTL > 255 {
		ttl = 4
	}
	for r := 0; r < sc.Probes; r++ {
		for k := 0; k < sc.Neighbors; k++ {
			qid := uint32(r*sc.Neighbors + k + 1)
			target := g.Nodes[k].ID
			probes[qid-1].neighbor = target
			inv.seen[qid] = true // never treat the own flood as fresh
			at := time.Duration(r) * sc.RoundGap
			if err := o.ScheduleNode(invID, at, func() {
				probes[qid-1].sentAt = invSim.Now()
				inv.send(target, scaleKindQuery, qid, ttl)
			}); err != nil {
				return ExperimentResult{}, err
			}
		}
	}

	deadline := time.Duration(sc.Probes)*sc.RoundGap + sc.Tail
	if err := o.RunUntil(deadline, sc.Workers); err != nil {
		return ExperimentResult{}, err
	}
	if o.Exhausted() {
		answered := 0
		for i := range probes {
			if probes[i].responded {
				answered++
			}
		}
		return ExperimentResult{}, fmt.Errorf(
			"swarm %d: %w after %d steps (partial acquisition: %d/%d probes answered)",
			swarm, netsim.ErrStepBudget, o.Steps(), answered, len(probes))
	}

	// Score exactly like the E2 experiment: minimum RTT per neighbor
	// against the protocol-derived threshold.
	cls := AutoClassifier(sc.Overlay)
	res := ExperimentResult{Threshold: cls.Threshold}
	res.Probes.Sent = len(probes)
	if fb != nil {
		res.Faults = fb.Stats()
	}
	byNbr := make(map[netsim.NodeID][]Measurement, sc.Neighbors)
	for i := range probes {
		pr := &probes[i]
		if !pr.responded {
			res.Probes.Timeouts++
		}
		byNbr[pr.neighbor] = append(byNbr[pr.neighbor], Measurement{
			Neighbor: pr.neighbor, QID: int64(i + 1),
			SentAt: pr.sentAt, RespondedAt: pr.respondedAt, Responded: pr.responded,
		})
	}
	for k := 0; k < sc.Neighbors; k++ {
		id := g.Nodes[k].ID
		verdict, err := cls.Classify(byNbr[id])
		if err != nil {
			return ExperimentResult{}, fmt.Errorf("classifying %q: %w", id, err)
		}
		switch {
		case verdict == VerdictSource && truth[id]:
			res.TruePos++
		case verdict == VerdictSource && !truth[id]:
			res.FalsePos++
		case verdict != VerdictSource && truth[id]:
			res.FalseNeg++
		default:
			res.TrueNeg++
		}
		if verdict == VerdictNoResponse {
			res.NoResponse++
		}
	}
	return res, nil
}

// ScaleSweep declares the swarm-size series: classification quality as
// the swarm — and with it the organic load on the evidence channel —
// grows. Runs on the sharded engine; the emitted series is byte-
// identical at any partition or worker count.
func ScaleSweep(sc ScaleConfig, swarms []int) experiment.Sweep {
	points := make([]experiment.Point, len(swarms))
	for i, s := range swarms {
		points[i] = experiment.Point{Label: fmt.Sprintf("swarm=%d", s), Value: float64(s)}
	}
	return experiment.Sweep{
		Name:   "p2p-swarm-scale",
		Points: points,
		Reps:   sc.Reps,
		Seed:   sc.Seed,
		Run: func(t experiment.Trial, pt experiment.Point) (experiment.Sample, error) {
			res, err := RunScaleExperiment(sc, int(pt.Value), t.Seed)
			if err != nil {
				return nil, err
			}
			return experiment.Sample{
				"accuracy":  res.Accuracy(),
				"precision": res.Precision(),
				"recall":    res.Recall(),
				"answered":  res.Answered(),
			}, nil
		},
	}
}
