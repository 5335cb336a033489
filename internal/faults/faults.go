// Package faults is a seeded, fully deterministic fault-injection layer
// for the netsim substrate. A declarative Plan describes probabilistic
// packet loss, duplication, reorder/jitter, bandwidth degradation, and
// scheduled node crash/recovery (peer churn); Partitioned realizes the
// plan as a netsim.FaultHook whose every decision is a pure function of
// (plan, seed, the deciding node's own event order). The same seed and plan therefore yield
// byte-identical simulation runs at any worker count, which is the same
// guarantee the experiment harness makes for trial scheduling.
//
// The paper's case studies (§IV-A OneSwarm timing attack, §IV-B DSSS
// flow watermarking) measure detectors the law will only credit if they
// stay reliable on a misbehaving Internet; this package supplies the
// misbehavior so the degradation can be measured instead of assumed.
package faults

import (
	"errors"
	"fmt"
	"time"
)

// ErrBadPlan reports an invalid fault plan.
var ErrBadPlan = errors.New("faults: bad plan")

// Churn schedules node crash/recovery. Each non-exempt node alternates
// between up phases (mean MeanUp) and down phases (mean MeanDown),
// exponentially distributed, on a per-node timeline derived from the
// hook's seed and the node name — so a node's outage schedule does not
// depend on traffic or on the order nodes are queried.
type Churn struct {
	// MeanUp is the mean time a node stays up between crashes.
	MeanUp time.Duration
	// MeanDown is the mean outage duration. Churn is inactive unless
	// both means are positive.
	MeanDown time.Duration
	// Start delays the first possible crash: every node is up before it.
	Start time.Duration
	// Exempt lists node IDs that never crash (e.g. the investigator —
	// the experiment measures the substrate failing, not the measurer).
	Exempt []string
}

// Active reports whether the churn schedule can take any node down.
func (c Churn) Active() bool { return c.MeanUp > 0 && c.MeanDown > 0 }

// DownFraction returns the long-run fraction of time a churned node
// spends down, or 0 when churn is inactive.
func (c Churn) DownFraction() float64 {
	if !c.Active() {
		return 0
	}
	return float64(c.MeanDown) / float64(c.MeanUp+c.MeanDown)
}

// ChurnFraction builds a schedule in which nodes are down the given
// fraction of time with outages of the given mean length. frac outside
// (0, 1) returns an inactive schedule.
func ChurnFraction(frac float64, meanOutage time.Duration, exempt ...string) Churn {
	if frac <= 0 || frac >= 1 || meanOutage <= 0 {
		return Churn{Exempt: exempt}
	}
	return Churn{
		MeanUp:   time.Duration(float64(meanOutage) * (1 - frac) / frac),
		MeanDown: meanOutage,
		Exempt:   exempt,
	}
}

// Plan declares what the fault layer does to a network. The zero Plan
// injects nothing.
type Plan struct {
	// Loss is an extra independent per-packet drop probability, applied
	// after (and on top of) each link's own Loss.
	Loss float64
	// Duplicate is the per-packet probability of one extra delivery.
	Duplicate float64
	// DuplicateLag is how long after the original the duplicate arrives
	// (default 1ms when Duplicate is set and the lag is zero).
	DuplicateLag time.Duration
	// Reorder is the per-packet probability of an extra delivery delay
	// drawn uniformly from (0, ReorderSpread]; a delay exceeding the
	// inter-packet gap reorders packets.
	Reorder float64
	// ReorderSpread bounds the extra delay; Reorder is inert without it.
	ReorderSpread time.Duration
	// BandwidthBps, when positive, caps every link's bandwidth (it
	// tightens constrained links and makes unconstrained ones finite).
	BandwidthBps int64
	// Churn schedules node crash/recovery.
	Churn Churn
}

// Active reports whether the plan injects any fault at all.
func (p Plan) Active() bool {
	return p.Loss > 0 || p.Duplicate > 0 ||
		(p.Reorder > 0 && p.ReorderSpread > 0) ||
		p.BandwidthBps > 0 || p.Churn.Active()
}

// Validate checks the plan's parameters.
func (p Plan) Validate() error {
	for _, pr := range []struct {
		name string
		v    float64
	}{{"Loss", p.Loss}, {"Duplicate", p.Duplicate}, {"Reorder", p.Reorder}} {
		if pr.v < 0 || pr.v > 1 {
			return fmt.Errorf("%w: %s=%v outside [0,1]", ErrBadPlan, pr.name, pr.v)
		}
	}
	for _, d := range []struct {
		name string
		v    time.Duration
	}{
		{"DuplicateLag", p.DuplicateLag}, {"ReorderSpread", p.ReorderSpread},
		{"Churn.MeanUp", p.Churn.MeanUp}, {"Churn.MeanDown", p.Churn.MeanDown},
		{"Churn.Start", p.Churn.Start},
	} {
		if d.v < 0 {
			return fmt.Errorf("%w: %s=%v negative", ErrBadPlan, d.name, d.v)
		}
	}
	if p.BandwidthBps < 0 {
		return fmt.Errorf("%w: BandwidthBps=%d negative", ErrBadPlan, p.BandwidthBps)
	}
	if (p.Churn.MeanUp > 0) != (p.Churn.MeanDown > 0) {
		return fmt.Errorf("%w: churn needs both MeanUp and MeanDown (got up=%v down=%v)",
			ErrBadPlan, p.Churn.MeanUp, p.Churn.MeanDown)
	}
	return nil
}

// String summarizes the active faults, or "none".
func (p Plan) String() string {
	if !p.Active() {
		return "none"
	}
	s := ""
	add := func(format string, args ...any) {
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf(format, args...)
	}
	if p.Loss > 0 {
		add("loss=%.0f%%", p.Loss*100)
	}
	if p.Duplicate > 0 {
		add("dup=%.0f%%", p.Duplicate*100)
	}
	if p.Reorder > 0 && p.ReorderSpread > 0 {
		add("reorder=%.0f%%/%v", p.Reorder*100, p.ReorderSpread)
	}
	if p.BandwidthBps > 0 {
		add("bw=%dbps", p.BandwidthBps)
	}
	if p.Churn.Active() {
		add("churn=%.0f%%down", p.Churn.DownFraction()*100)
	}
	return s
}
