package topo

import (
	"reflect"
	"testing"
	"time"

	"lawgate/internal/netsim"
)

func TestPreferentialDeterministicAndConnected(t *testing.T) {
	cfg := PreferentialConfig{Nodes: 200, Edges: 2, Seed: 42}
	g1, err := Preferential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Preferential(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Nodes, g2.Nodes) || !reflect.DeepEqual(g1.Links, g2.Links) {
		t.Fatal("same config must generate the same graph")
	}
	if len(g1.Nodes) != 200 {
		t.Fatalf("nodes = %d", len(g1.Nodes))
	}
	// Expected edge count: 1 seed edge + 2 per node from node 2 on.
	if want := 1 + 2*(200-2); len(g1.Links) != want {
		t.Errorf("links = %d, want %d", len(g1.Links), want)
	}
	// Preferential attachment must produce hubs: some node far above the
	// mean degree.
	deg := map[netsim.NodeID]int{}
	for _, l := range g1.Links {
		deg[l.A]++
		deg[l.B]++
	}
	max := 0
	for _, d := range deg {
		if d > max {
			max = d
		}
	}
	if max < 10 {
		t.Errorf("max degree = %d; expected a hub well above mean ~4", max)
	}
	// Every node reachable from as0 (new nodes always attach to existing
	// ones, so the graph is connected by construction — verify anyway).
	adj := map[netsim.NodeID][]netsim.NodeID{}
	for _, l := range g1.Links {
		adj[l.A] = append(adj[l.A], l.B)
		adj[l.B] = append(adj[l.B], l.A)
	}
	seen := map[netsim.NodeID]bool{"as0": true}
	stack := []netsim.NodeID{"as0"}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, m := range adj[n] {
			if !seen[m] {
				seen[m] = true
				stack = append(stack, m)
			}
		}
	}
	if len(seen) != 200 {
		t.Errorf("reachable nodes = %d, want 200", len(seen))
	}
}

func TestCompositeShapeAndPartitionLocality(t *testing.T) {
	g, err := Composite(CompositeConfig{
		Campuses: 4, HostsPerCampus: 3, ISPEdges: 2, TorRelays: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 1 core + 2 edges + 3 tor + 4×(1 gw + 3 hosts) = 22 nodes.
	if len(g.Nodes) != 22 {
		t.Fatalf("nodes = %d, want 22", len(g.Nodes))
	}
	// Well-known names exist.
	ids := map[netsim.NodeID]bool{}
	for _, n := range g.Nodes {
		ids[n.ID] = true
	}
	for _, want := range []netsim.NodeID{"isp-core", "isp-edge1", "tor2", "campus3-gw", "campus0/h0"} {
		if !ids[want] {
			t.Errorf("missing well-known node %q", want)
		}
	}
	// Under the component partition map, host↔gateway links never cross
	// a partition boundary, whatever the partition count.
	for _, parts := range []int{2, 3, 5} {
		pf := g.PartitionFunc(parts)
		for c := 0; c < 4; c++ {
			gw := netsim.NodeID("campus" + string(rune('0'+c)) + "-gw")
			h := netsim.NodeID("campus" + string(rune('0'+c)) + "/h0")
			if pf(gw) != pf(h) {
				t.Errorf("parts=%d: campus %d gateway and host split across partitions", parts, c)
			}
		}
	}
}

func TestApplyToBuildsRunnableNetwork(t *testing.T) {
	g, err := Composite(CompositeConfig{Campuses: 2, HostsPerCampus: 2, ISPEdges: 1})
	if err != nil {
		t.Fatal(err)
	}
	o := netsim.NewShardedNetwork(1, 1)
	if err := g.ApplyTo(o, nil); err != nil {
		t.Fatal(err)
	}
	n, err := o.PartitionNet("campus0/h0")
	if err != nil {
		t.Fatal(err)
	}
	sim := n.Sim()
	if !n.Linked("campus0/h0", "campus0-gw") || !n.Linked("campus0-gw", "isp-edge0") {
		t.Fatal("expected links missing after ApplyTo")
	}
	err = n.Send(&netsim.Packet{
		Header: netsim.Header{Src: "campus0/h0", Dst: "campus0-gw"},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if sim.Now() != time.Millisecond {
		t.Errorf("LAN delivery at %v, want 1ms", sim.Now())
	}
}
