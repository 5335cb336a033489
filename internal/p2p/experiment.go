package p2p

import (
	"errors"
	"fmt"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/netsim"
)

// ErrBadExperiment is returned for invalid experiment parameters.
var ErrBadExperiment = errors.New("p2p: invalid experiment config")

// ExperimentConfig parameterizes the Section IV-A reproduction: an
// investigator with a mix of source and forwarder neighbors, probed k
// times each.
type ExperimentConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Neighbors is the investigator's neighbor count.
	Neighbors int
	// Sources of those neighbors hold the queried content locally; the
	// rest are forwarders one hop from a hidden source.
	Sources int
	// Probes is the number of timed queries per neighbor.
	Probes int
	// MaxSteps caps the simulator's event count — the runaway-loop
	// guard for trials running inside sweep workers. Zero selects a
	// generous default scaled to the probe budget.
	MaxSteps int64
	// Overlay carries the protocol parameters (anonymous mode delays).
	Overlay Config
	// Faults declares the substrate's misbehavior; the zero plan is the
	// fault-free baseline. The investigator itself is always exempt from
	// churn — the experiment measures the substrate failing, not the
	// measurer.
	Faults faults.Plan
	// ProbeTimeout overrides the per-attempt response deadline; zero
	// derives a generous bound from the overlay parameters.
	ProbeTimeout time.Duration
	// ProbeRetries is the number of re-attempts after a timed-out probe
	// (total attempts = 1 + ProbeRetries).
	ProbeRetries int
}

// ExperimentResult is the classification quality of one run.
type ExperimentResult struct {
	// Confusion counts: a "positive" is classifying a neighbor as a
	// source.
	TruePos, FalsePos, TrueNeg, FalseNeg int
	// Unresponsive neighbors (counted as negatives).
	NoResponse int
	// Threshold is the classifier's decision boundary.
	Threshold time.Duration
	// Probes is the acquisition-effort record (sent/retried/timed out).
	Probes ProbeStats
	// Faults is what the injector actually did to the run.
	Faults faults.Stats
}

// Answered returns the fraction of sent probes that received responses,
// or 1 when nothing was sent — the acquisition-completeness figure a
// degraded run reports alongside its verdicts.
func (r ExperimentResult) Answered() float64 {
	if r.Probes.Sent == 0 {
		return 1
	}
	return 1 - float64(r.Probes.Timeouts)/float64(r.Probes.Sent)
}

// Precision returns TP/(TP+FP), or 1 when nothing was flagged.
func (r ExperimentResult) Precision() float64 {
	if r.TruePos+r.FalsePos == 0 {
		return 1
	}
	return float64(r.TruePos) / float64(r.TruePos+r.FalsePos)
}

// Recall returns TP/(TP+FN), or 1 when there were no sources.
func (r ExperimentResult) Recall() float64 {
	if r.TruePos+r.FalseNeg == 0 {
		return 1
	}
	return float64(r.TruePos) / float64(r.TruePos+r.FalseNeg)
}

// Accuracy returns the fraction of neighbors classified correctly.
func (r ExperimentResult) Accuracy() float64 {
	total := r.TruePos + r.FalsePos + r.TrueNeg + r.FalseNeg
	if total == 0 {
		return 0
	}
	return float64(r.TruePos+r.TrueNeg) / float64(total)
}

// ContrabandKey is the content key the experiments query for.
const ContrabandKey ContentKey = "contraband-file-0001"

// faultStream separates the fault injector's seed lineage from the
// simulation's own.
const faultStream int64 = 0x7032706661756c74 // "p2pfault"

// RunExperiment builds the IV-A topology — the investigator linked to
// Neighbors peers, of which Sources share ContrabandKey and the rest each
// forward to a hidden second-hop source — probes every neighbor Probes
// times, classifies with the auto-derived threshold, and scores against
// ground truth.
func RunExperiment(ec ExperimentConfig) (ExperimentResult, error) {
	if ec.Neighbors <= 0 || ec.Sources < 0 || ec.Sources > ec.Neighbors || ec.Probes <= 0 {
		return ExperimentResult{}, fmt.Errorf("%w: %+v", ErrBadExperiment, ec)
	}
	sim := netsim.NewSimulator(ec.Seed)
	budget := ec.MaxSteps
	if budget == 0 {
		// A probe floods at most the two-hop neighborhood; 1000 events
		// per (probe, neighbor) pair is orders of magnitude of slack.
		budget = int64(ec.Probes)*int64(ec.Neighbors)*1000 + 100_000
	}
	sim.SetStepBudget(budget)
	net := netsim.NewNetwork(sim)
	o := NewOverlay(net, ec.Overlay)

	inv, err := NewInvestigator(o, "investigator")
	if err != nil {
		return ExperimentResult{}, err
	}

	truth := make(map[netsim.NodeID]bool, ec.Neighbors)
	neighbors := make([]netsim.NodeID, 0, ec.Neighbors)
	for i := 0; i < ec.Neighbors; i++ {
		id := netsim.NodeID(fmt.Sprintf("peer-%02d", i))
		isSource := i < ec.Sources
		truth[id] = isSource
		var keys []ContentKey
		if isSource {
			keys = []ContentKey{ContrabandKey}
		}
		if _, err := o.AddPeer(id, keys...); err != nil {
			return ExperimentResult{}, err
		}
		if err := inv.Befriend(id); err != nil {
			return ExperimentResult{}, err
		}
		if !isSource {
			hidden := netsim.NodeID(fmt.Sprintf("hidden-%02d", i))
			if _, err := o.AddPeer(hidden, ContrabandKey); err != nil {
				return ExperimentResult{}, err
			}
			if err := o.Befriend(id, hidden); err != nil {
				return ExperimentResult{}, err
			}
		}
		neighbors = append(neighbors, id)
	}

	var hook *faults.Partitioned
	if ec.Faults.Active() {
		plan := ec.Faults
		plan.Churn.Exempt = append(append([]string{}, plan.Churn.Exempt...), "investigator")
		// The hook covers the topology just built. Its seed derives from
		// the trial seed on a separate stream, so the fault schedule is
		// independent of the overlay's own randomness.
		hook, err = faults.NewPartitioned(plan, experiment.DeriveSeed(ec.Seed, faultStream), net.Nodes())
		if err != nil {
			return ExperimentResult{}, err
		}
		if err := net.SetFaults(hook); err != nil {
			return ExperimentResult{}, err
		}
	}

	// Probe each neighbor k times, draining the simulator between
	// probes so measurements never interleave. The neighbor list is
	// re-resolved from the live topology each round, and every probe
	// carries a timeout and bounded deterministic retries so a crashed
	// or lossy peer degrades to VerdictNoResponse instead of leaving a
	// measurement pending forever.
	policy := DefaultRetryPolicy(ec.Overlay)
	policy.Attempts = 1 + ec.ProbeRetries
	if ec.ProbeTimeout > 0 {
		policy.Timeout = ec.ProbeTimeout
	}
	for round := 0; round < ec.Probes; round++ {
		for _, id := range inv.Neighbors() {
			if err := inv.ProbeReliably(id, ContrabandKey, policy); err != nil {
				return ExperimentResult{}, err
			}
			sim.Run()
			if sim.Exhausted() {
				st := inv.Stats()
				return ExperimentResult{}, fmt.Errorf(
					"probing %q: %w after %d steps (partial acquisition: %d measurements from %d probes, %d timeouts)",
					id, netsim.ErrStepBudget, sim.Steps(), len(inv.Measurements()), st.Sent, st.Timeouts)
			}
		}
	}

	cls := AutoClassifier(ec.Overlay)
	res := ExperimentResult{Threshold: cls.Threshold, Probes: inv.Stats()}
	if hook != nil {
		res.Faults = hook.Stats()
	}
	for _, id := range neighbors {
		verdict, err := cls.Classify(inv.MeasurementsFor(id))
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
