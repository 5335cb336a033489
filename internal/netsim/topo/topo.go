// Package topo generates large seeded network topologies for the
// sharded simulator: AS-level preferential-attachment graphs and
// campus+ISP+Tor composites. Generators emit a Graph — a deterministic
// node and link list — that applies onto a netsim.ShardedNetwork, or
// any of its netsim.Network views, through the Builder interface.
package topo

import (
	"fmt"
	"math/rand"
	"time"

	"lawgate/internal/netsim"
)

// Builder is the surface Graph.ApplyTo drives; both *netsim.Network and
// *netsim.ShardedNetwork satisfy it.
type Builder interface {
	// AddNode registers a node (nil handler = sink).
	AddNode(id netsim.NodeID, h netsim.Handler) error
	// Connect joins two registered nodes.
	Connect(a, b netsim.NodeID, link netsim.Link) error
}

// Node is one generated node with its locality component — the label
// partition functions use to keep tightly-coupled nodes together.
type Node struct {
	// ID is the node name.
	ID netsim.NodeID
	// Component groups nodes that belong together (a campus, the ISP
	// core, the Tor overlay); preferential graphs number each node its
	// own component.
	Component int
}

// LinkSpec is one generated link.
type LinkSpec struct {
	// A and B are the endpoints.
	A, B netsim.NodeID
	// Link carries the latency/loss/bandwidth parameters.
	Link netsim.Link
}

// Graph is a generated topology: nodes and links in deterministic
// (generation) order.
type Graph struct {
	// Nodes lists every node, in the order they must be added — node
	// index order is what per-node seeding keys on.
	Nodes []Node
	// Links lists every link.
	Links []LinkSpec

	component map[netsim.NodeID]int
}

// ApplyTo adds the graph's nodes and links to a builder. handler, when
// non-nil, chooses each node's packet handler (return nil for a sink).
func (g *Graph) ApplyTo(b Builder, handler func(id netsim.NodeID) netsim.Handler) error {
	for _, n := range g.Nodes {
		var h netsim.Handler
		if handler != nil {
			h = handler(n.ID)
		}
		if err := b.AddNode(n.ID, h); err != nil {
			return err
		}
	}
	for _, l := range g.Links {
		if err := b.Connect(l.A, l.B, l.Link); err != nil {
			return err
		}
	}
	return nil
}

// PartitionFunc returns a node→partition map that folds locality
// components onto parts partitions, so links inside a component never
// cross a partition boundary. Nodes the graph does not know fall back
// to component 0.
func (g *Graph) PartitionFunc(parts int) func(netsim.NodeID) int {
	if g.component == nil {
		g.component = make(map[netsim.NodeID]int, len(g.Nodes))
		for _, n := range g.Nodes {
			g.component[n.ID] = n.Component
		}
	}
	if parts < 1 {
		parts = 1
	}
	return func(id netsim.NodeID) int {
		return g.component[id] % parts
	}
}

// PreferentialConfig parameterizes an AS-level preferential-attachment
// (Barabási–Albert) graph.
type PreferentialConfig struct {
	// Nodes is the node count (≥ 2).
	Nodes int
	// Edges is how many existing nodes each new node attaches to,
	// proportionally to their degree (≥ 1). Hubs emerge naturally.
	Edges int
	// Seed drives attachment choices.
	Seed int64
	// Latency is every link's one-way delay (default 10ms). A uniform
	// latency keeps the sharded lookahead window at its maximum.
	Latency time.Duration
	// BandwidthBps caps links (0 = unconstrained).
	BandwidthBps int64
}

// Preferential generates a preferential-attachment graph: node "as0"
// through "asN-1", each new node linking Edges times to
// degree-proportional targets. Deterministic for a fixed config.
func Preferential(cfg PreferentialConfig) (*Graph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("topo: preferential graph needs ≥ 2 nodes, have %d", cfg.Nodes)
	}
	if cfg.Edges < 1 {
		cfg.Edges = 1
	}
	if cfg.Latency <= 0 {
		cfg.Latency = 10 * time.Millisecond
	}
	link := netsim.Link{Latency: cfg.Latency, BandwidthBps: cfg.BandwidthBps}
	rng := rand.New(rand.NewSource(cfg.Seed))
	g := &Graph{Nodes: make([]Node, 0, cfg.Nodes)}
	name := func(i int) netsim.NodeID { return netsim.NodeID(fmt.Sprintf("as%d", i)) }
	for i := 0; i < cfg.Nodes; i++ {
		g.Nodes = append(g.Nodes, Node{ID: name(i), Component: i})
	}
	// endpoints lists every edge endpoint once; sampling it uniformly is
	// sampling nodes proportionally to degree — the classic BA trick.
	endpoints := make([]int, 0, 2*cfg.Edges*cfg.Nodes)
	g.Links = append(g.Links, LinkSpec{A: name(0), B: name(1), Link: link})
	endpoints = append(endpoints, 0, 1)
	seen := make(map[int]bool, cfg.Edges)
	for i := 2; i < cfg.Nodes; i++ {
		m := cfg.Edges
		if m > i {
			m = i
		}
		for k := range seen {
			delete(seen, k)
		}
		for len(seen) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if seen[t] {
				continue
			}
			seen[t] = true
			g.Links = append(g.Links, LinkSpec{A: name(i), B: name(t), Link: link})
			endpoints = append(endpoints, i, t)
		}
	}
	return g, nil
}

// CompositeConfig parameterizes a campus+ISP+Tor composite: campuses of
// leaf hosts behind gateways, gateways behind ISP edge routers, edges
// behind one core, and a Tor relay ring hanging off the core.
type CompositeConfig struct {
	// Campuses and HostsPerCampus size the access layer.
	Campuses, HostsPerCampus int
	// ISPEdges is the edge-router count (≥ 1); campuses round-robin
	// across them.
	ISPEdges int
	// TorRelays sizes the relay ring (0 = none).
	TorRelays int
	// LANLatency is the host↔gateway delay (default 1ms); WANLatency is
	// every other link's delay (default 10ms) and therefore the
	// cross-partition lookahead under the component partition map.
	LANLatency, WANLatency time.Duration
	// TrunkBandwidthBps, when positive, caps the edge↔core trunks —
	// the shared bottleneck that makes load visible at scale.
	TrunkBandwidthBps int64
}

// Composite generates the composite topology. Names are well known so
// experiments can address them: "isp-core", "isp-edge<e>",
// "campus<c>-gw", "campus<c>/h<i>", "tor<r>". Each campus is one
// locality component; the ISP is another; the Tor ring a third.
func Composite(cfg CompositeConfig) (*Graph, error) {
	if cfg.Campuses < 1 || cfg.HostsPerCampus < 1 {
		return nil, fmt.Errorf("topo: composite needs ≥ 1 campus and ≥ 1 host, have %d×%d",
			cfg.Campuses, cfg.HostsPerCampus)
	}
	if cfg.ISPEdges < 1 {
		cfg.ISPEdges = 1
	}
	if cfg.LANLatency <= 0 {
		cfg.LANLatency = time.Millisecond
	}
	if cfg.WANLatency <= 0 {
		cfg.WANLatency = 10 * time.Millisecond
	}
	lan := netsim.Link{Latency: cfg.LANLatency}
	wan := netsim.Link{Latency: cfg.WANLatency}
	trunk := netsim.Link{Latency: cfg.WANLatency, BandwidthBps: cfg.TrunkBandwidthBps}

	g := &Graph{}
	// Components: 0 = ISP backbone, 1 = Tor ring, campuses from 2 up.
	const compISP, compTor = 0, 1
	core := netsim.NodeID("isp-core")
	g.Nodes = append(g.Nodes, Node{ID: core, Component: compISP})
	edges := make([]netsim.NodeID, cfg.ISPEdges)
	for e := 0; e < cfg.ISPEdges; e++ {
		edges[e] = netsim.NodeID(fmt.Sprintf("isp-edge%d", e))
		g.Nodes = append(g.Nodes, Node{ID: edges[e], Component: compISP})
		g.Links = append(g.Links, LinkSpec{A: edges[e], B: core, Link: trunk})
	}
	for r := 0; r < cfg.TorRelays; r++ {
		id := netsim.NodeID(fmt.Sprintf("tor%d", r))
		g.Nodes = append(g.Nodes, Node{ID: id, Component: compTor})
		g.Links = append(g.Links, LinkSpec{A: id, B: core, Link: wan})
		if r > 0 {
			g.Links = append(g.Links, LinkSpec{
				A: id, B: netsim.NodeID(fmt.Sprintf("tor%d", r-1)), Link: wan,
			})
		}
	}
	for c := 0; c < cfg.Campuses; c++ {
		gw := netsim.NodeID(fmt.Sprintf("campus%d-gw", c))
		g.Nodes = append(g.Nodes, Node{ID: gw, Component: 2 + c})
		g.Links = append(g.Links, LinkSpec{A: gw, B: edges[c%cfg.ISPEdges], Link: wan})
		for i := 0; i < cfg.HostsPerCampus; i++ {
			h := netsim.NodeID(fmt.Sprintf("campus%d/h%d", c, i))
			g.Nodes = append(g.Nodes, Node{ID: h, Component: 2 + c})
			g.Links = append(g.Links, LinkSpec{A: h, B: gw, Link: lan})
		}
	}
	return g, nil
}
