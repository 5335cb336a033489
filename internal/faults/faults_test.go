package faults

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"lawgate/internal/netsim"
	"lawgate/internal/stats"
)

// attach builds a hook for every node n holds and installs it.
func attach(t *testing.T, n *netsim.Network, plan Plan, seed int64) *Partitioned {
	t.Helper()
	hook, err := NewPartitioned(plan, seed, n.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := n.SetFaults(hook); err != nil {
		t.Fatal(err)
	}
	return hook
}

// mustHook builds a hook covering the given nodes.
func mustHook(t *testing.T, plan Plan, seed int64, nodes ...netsim.NodeID) *Partitioned {
	t.Helper()
	hook, err := NewPartitioned(plan, seed, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return hook
}

func lossyNet(t *testing.T, plan Plan, seed int64) (*netsim.Network, *Partitioned, *int) {
	t.Helper()
	sim := netsim.NewSimulator(seed)
	n := netsim.NewNetwork(sim)
	delivered := 0
	if err := n.AddNode("src", nil); err != nil {
		t.Fatal(err)
	}
	err := n.AddNode("dst", netsim.HandlerFunc(func(_ *netsim.Network, _ *netsim.Packet) {
		delivered++
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("src", "dst", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	return n, attach(t, n, plan, seed), &delivered
}

func send(t *testing.T, n *netsim.Network) {
	t.Helper()
	err := n.Send(&netsim.Packet{
		Header:  netsim.Header{Src: "src", Dst: "dst", Flow: "f"},
		Payload: []byte("x"),
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestLossRateWithinWilson: at a fixed seed the observed delivery rate's
// Wilson interval must contain the configured survival rate.
func TestLossRateWithinWilson(t *testing.T) {
	const total, loss = 3000, 0.3
	n, in, delivered := lossyNet(t, Plan{Loss: loss}, 42)
	for i := 0; i < total; i++ {
		send(t, n)
	}
	n.Sim().Run()
	lo, hi, err := stats.Wilson(*delivered, total)
	if err != nil {
		t.Fatal(err)
	}
	if want := 1 - loss; want < lo || want > hi {
		t.Errorf("survival rate %.3f outside Wilson [%.3f,%.3f] of %d/%d",
			want, lo, hi, *delivered, total)
	}
	if in.Stats().Dropped != n.FaultDropped {
		t.Errorf("injector dropped %d, network counted %d", in.Stats().Dropped, n.FaultDropped)
	}
}

// TestDuplicationRateWithinWilson: duplicated fraction matches the plan.
func TestDuplicationRateWithinWilson(t *testing.T) {
	const total, dup = 3000, 0.1
	n, _, delivered := lossyNet(t, Plan{Duplicate: dup, DuplicateLag: time.Millisecond}, 7)
	for i := 0; i < total; i++ {
		send(t, n)
	}
	n.Sim().Run()
	lo, hi, err := stats.Wilson(int(n.Duplicated), total)
	if err != nil {
		t.Fatal(err)
	}
	if dup < lo || dup > hi {
		t.Errorf("dup rate %.2f outside Wilson [%.3f,%.3f] of %d/%d",
			dup, lo, hi, n.Duplicated, total)
	}
	if *delivered != total+int(n.Duplicated) {
		t.Errorf("delivered %d, want %d originals + %d duplicates",
			*delivered, total, n.Duplicated)
	}
}

// TestReorderRateWithinWilson: delayed fraction matches the plan and the
// injected delays stay within ReorderSpread.
func TestReorderRateWithinWilson(t *testing.T) {
	const total, reorder = 3000, 0.5
	spread := 20 * time.Millisecond
	sim := netsim.NewSimulator(11)
	n := netsim.NewNetwork(sim)
	var delays []time.Duration
	if err := n.AddNode("src", nil); err != nil {
		t.Fatal(err)
	}
	err := n.AddNode("dst", netsim.HandlerFunc(func(_ *netsim.Network, p *netsim.Packet) {
		delays = append(delays, p.DeliveredAt-p.SentAt)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("src", "dst", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	in := attach(t, n, Plan{Reorder: reorder, ReorderSpread: spread}, 11)
	for i := 0; i < total; i++ {
		send(t, n)
	}
	sim.Run()
	lo, hi, err := stats.Wilson(int(in.Stats().Delayed), total)
	if err != nil {
		t.Fatal(err)
	}
	if reorder < lo || reorder > hi {
		t.Errorf("reorder rate %.2f outside Wilson [%.3f,%.3f] of %d/%d",
			reorder, lo, hi, in.Stats().Delayed, total)
	}
	for _, d := range delays {
		if d < time.Millisecond || d > time.Millisecond+spread {
			t.Fatalf("delivery delay %v outside [1ms, 1ms+%v]", d, spread)
		}
	}
}

// TestChurnDeliversNothingDuringOutage: a crash-scheduled destination
// delivers no packet inside any of its down windows, and outages do
// happen under a steady probe stream.
func TestChurnDeliversNothingDuringOutage(t *testing.T) {
	plan := Plan{Churn: ChurnFraction(0.3, 500*time.Millisecond)}
	sim := netsim.NewSimulator(3)
	n := netsim.NewNetwork(sim)
	var deliveredAt []time.Duration
	if err := n.AddNode("src", nil); err != nil {
		t.Fatal(err)
	}
	err := n.AddNode("dst", netsim.HandlerFunc(func(_ *netsim.Network, p *netsim.Packet) {
		deliveredAt = append(deliveredAt, p.DeliveredAt)
	}))
	if err != nil {
		t.Fatal(err)
	}
	if err := n.Connect("src", "dst", netsim.Link{Latency: time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	in := attach(t, n, plan, 3)
	horizon := 30 * time.Second
	for at := time.Duration(0); at < horizon; at += 5 * time.Millisecond {
		if err := sim.ScheduleAt(at, func() { send(t, n) }); err != nil {
			t.Fatal(err)
		}
	}
	sim.Run()
	outages := in.Outages("dst", horizon+time.Second)
	if len(outages) == 0 {
		t.Fatal("no outages materialized over 30s at 30% down")
	}
	if n.FaultDropped == 0 {
		t.Fatal("no packet was lost to the down windows")
	}
	for _, at := range deliveredAt {
		for _, w := range outages {
			if at >= w[0] && at < w[1] {
				t.Fatalf("packet delivered at %v inside down window [%v,%v)", at, w[0], w[1])
			}
		}
	}
	if len(deliveredAt)+int(n.FaultDropped) == 0 {
		t.Fatal("nothing happened")
	}
}

// TestChurnDownFraction: long-run down time approximates DownFraction.
func TestChurnDownFraction(t *testing.T) {
	plan := Plan{Churn: ChurnFraction(0.2, time.Second)}
	in := mustHook(t, plan, 9, "peer")
	horizon := 10 * time.Minute
	var down time.Duration
	for _, w := range in.Outages("peer", horizon) {
		down += w[1] - w[0]
	}
	frac := float64(down) / float64(horizon)
	if frac < 0.1 || frac > 0.3 {
		t.Errorf("down fraction %.3f far from configured 0.20", frac)
	}
}

// TestChurnQueryOrderIndependent: a node's outage schedule is identical
// whether it is queried early, late, forwards, or backwards.
func TestChurnQueryOrderIndependent(t *testing.T) {
	plan := Plan{Churn: ChurnFraction(0.2, time.Second)}
	a := mustHook(t, plan, 5, "peer1", "peer2")
	b := mustHook(t, plan, 5, "peer1", "peer2")
	// a: query peer2 first, then peer1 backwards in time.
	_ = a.Down("peer2", 90*time.Second)
	for ts := 60 * time.Second; ts >= 0; ts -= 3 * time.Second {
		_ = a.Down("peer1", ts)
	}
	// b: query peer1 forwards only.
	for ts := time.Duration(0); ts <= 60*time.Second; ts += time.Second {
		_ = b.Down("peer1", ts)
	}
	horizon := 60 * time.Second
	if !reflect.DeepEqual(a.Outages("peer1", horizon), b.Outages("peer1", horizon)) {
		t.Error("peer1 outage schedule depends on query order")
	}
	if !reflect.DeepEqual(a.Outages("peer2", horizon), b.Outages("peer2", horizon)) {
		t.Error("peer2 outage schedule depends on sibling queries")
	}
}

// TestChurnExemptAndStart: exempt nodes never go down; nothing is down
// before Start.
func TestChurnExemptAndStart(t *testing.T) {
	plan := Plan{Churn: Churn{
		MeanUp: time.Millisecond, MeanDown: 10 * time.Second,
		Start: 5 * time.Second, Exempt: []string{"investigator"},
	}}
	in := mustHook(t, plan, 1, "investigator", "peer")
	for ts := time.Duration(0); ts < time.Minute; ts += 50 * time.Millisecond {
		if in.Down("investigator", ts) {
			t.Fatal("exempt node went down")
		}
		if ts < 5*time.Second && in.Down("peer", ts) {
			t.Fatalf("peer down at %v, before Start=5s", ts)
		}
	}
	if in.Outages("investigator", time.Minute) != nil {
		t.Error("exempt node has outages")
	}
	// With MeanUp=1ms and MeanDown=10s the peer is essentially always
	// down after Start.
	if !in.Down("peer", 30*time.Second) {
		t.Error("peer not down despite 10s outages every 1ms")
	}
}

// TestInjectorDeterministic: same plan + seed reproduces both the churn
// schedule and the per-packet decisions exactly.
func TestInjectorDeterministic(t *testing.T) {
	plan := Plan{
		Loss: 0.2, Duplicate: 0.1, Reorder: 0.3,
		ReorderSpread: 10 * time.Millisecond,
		Churn:         ChurnFraction(0.2, time.Second),
	}
	a := mustHook(t, plan, 77, "x", "y", "peer")
	b := mustHook(t, plan, 77, "x", "y", "peer")
	for i := 0; i < 500; i++ {
		now := time.Duration(i) * time.Millisecond
		fa := a.Transmit("x", "y", now, nil)
		fb := b.Transmit("x", "y", now, nil)
		if !reflect.DeepEqual(fa, fb) {
			t.Fatalf("packet %d: %+v != %+v", i, fa, fb)
		}
	}
	if !reflect.DeepEqual(a.Outages("peer", time.Minute), b.Outages("peer", time.Minute)) {
		t.Error("churn schedules diverge at equal seed")
	}
	if a.Stats() != b.Stats() {
		t.Errorf("stats diverge: %+v != %+v", a.Stats(), b.Stats())
	}
}

func TestPlanValidate(t *testing.T) {
	bad := []Plan{
		{Loss: -0.1},
		{Loss: 1.5},
		{Duplicate: 2},
		{Reorder: -1},
		{ReorderSpread: -time.Second},
		{BandwidthBps: -1},
		{Churn: Churn{MeanUp: time.Second}},
		{Churn: Churn{MeanDown: time.Second}},
	}
	for i, p := range bad {
		if err := p.Validate(); !errors.Is(err, ErrBadPlan) {
			t.Errorf("plan %d: Validate() = %v, want ErrBadPlan", i, err)
		}
		if _, err := NewPartitioned(p, 1, nil); !errors.Is(err, ErrBadPlan) {
			t.Errorf("plan %d: NewPartitioned() = %v, want ErrBadPlan", i, err)
		}
	}
	if err := (Plan{}).Validate(); err != nil {
		t.Errorf("zero plan invalid: %v", err)
	}
}

func TestPlanActiveAndString(t *testing.T) {
	if (Plan{}).Active() {
		t.Error("zero plan active")
	}
	if got := (Plan{}).String(); got != "none" {
		t.Errorf("zero plan String = %q", got)
	}
	p := Plan{Loss: 0.2, Churn: ChurnFraction(0.15, time.Second)}
	if !p.Active() {
		t.Error("lossy churny plan inactive")
	}
	if got := p.String(); got != "loss=20% churn=15%down" {
		t.Errorf("String = %q", got)
	}
	// Reorder without spread is inert.
	if (Plan{Reorder: 0.5}).Active() {
		t.Error("reorder without spread should be inert")
	}
}

func TestProfiles(t *testing.T) {
	names := Profiles()
	if len(names) == 0 {
		t.Fatal("no profiles")
	}
	for _, name := range names {
		p, err := Profile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", name, err)
		}
	}
	if p, err := Profile("none"); err != nil || p.Active() {
		t.Errorf("profile none = %+v, %v", p, err)
	}
	if p, err := Profile("lossy"); err != nil || p.Loss != 0.20 {
		t.Errorf("profile lossy = %+v, %v", p, err)
	}
	if _, err := Profile("nope"); !errors.Is(err, ErrBadPlan) {
		t.Errorf("unknown profile err = %v", err)
	}
}

func TestChurnFraction(t *testing.T) {
	c := ChurnFraction(0.25, time.Second, "inv")
	if !c.Active() {
		t.Fatal("inactive")
	}
	if got := c.DownFraction(); got < 0.249 || got > 0.251 {
		t.Errorf("DownFraction = %v, want 0.25", got)
	}
	if len(c.Exempt) != 1 || c.Exempt[0] != "inv" {
		t.Errorf("Exempt = %v", c.Exempt)
	}
	if ChurnFraction(0, time.Second).Active() || ChurnFraction(1, time.Second).Active() {
		t.Error("degenerate fractions must be inactive")
	}
	if (Churn{}).DownFraction() != 0 {
		t.Error("inactive churn has nonzero DownFraction")
	}
}
