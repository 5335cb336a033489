package p2p

import (
	"fmt"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/faults"
)

// SweepConfig carries the topology knobs shared by the E2 sweep
// declarations: how many neighbors the investigator has, how many are
// true sources, how many seeded repetitions each grid point gets, and
// the master seed per-trial seeds derive from.
type SweepConfig struct {
	Neighbors int
	Sources   int
	Reps      int
	Seed      int64
	// Overlay is the protocol working point the sweep starts from.
	Overlay Config
	// MaxSteps caps each trial's simulator event count (0 = default).
	MaxSteps int64
	// Faults is the substrate fault plan every trial runs under; the
	// degradation sweeps vary one of its axes per grid point.
	Faults faults.Plan
	// ProbeRetries and ProbeTimeout tune the investigator's resilient
	// probing (zero values keep the derived defaults).
	ProbeRetries int
	ProbeTimeout time.Duration
}

// DefaultSweepConfig returns the paper-plausible E2 working point: 16
// neighbors (6 sources), 5 seeds per point, anonymous-mode delays.
func DefaultSweepConfig() SweepConfig {
	return SweepConfig{
		Neighbors: 16,
		Sources:   6,
		Reps:      5,
		Seed:      1,
		Overlay:   DefaultConfig(ModeAnonymous),
	}
}

// trial runs one classification trial of the sweep's topology.
func (sc SweepConfig) trial(probes int, overlay Config, plan faults.Plan, seed int64) (ExperimentResult, error) {
	return RunExperiment(ExperimentConfig{
		Seed:         seed,
		Neighbors:    sc.Neighbors,
		Sources:      sc.Sources,
		Probes:       probes,
		MaxSteps:     sc.MaxSteps,
		Overlay:      overlay,
		Faults:       plan,
		ProbeTimeout: sc.ProbeTimeout,
		ProbeRetries: sc.ProbeRetries,
	})
}

// classificationSweep declares an E2 series: each trial runs trial at its
// point and reports the run's classification quality. "answered" is the
// probe-response completeness: 1.0 on a healthy substrate, explicitly
// lower when faults eat probes.
func classificationSweep(name string, points []experiment.Point, reps int, seed int64,
	trial func(experiment.Trial, experiment.Point) (ExperimentResult, error)) experiment.Sweep {
	return experiment.Sweep{
		Name:   name,
		Points: points,
		Reps:   reps,
		Seed:   seed,
		Run: func(t experiment.Trial, pt experiment.Point) (experiment.Sample, error) {
			res, err := trial(t, pt)
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

// ProbeSweep declares E2 series 1: classification quality as a function
// of the probe budget, at the overlay's configured delays.
func ProbeSweep(sc SweepConfig, probes []int) experiment.Sweep {
	points := make([]experiment.Point, len(probes))
	for i, p := range probes {
		points[i] = experiment.Point{Label: fmt.Sprintf("probes=%d", p), Value: float64(p)}
	}
	return classificationSweep("p2p-probe-budget", points, sc.Reps, sc.Seed,
		func(t experiment.Trial, pt experiment.Point) (ExperimentResult, error) {
			return sc.trial(int(pt.Value), sc.Overlay, sc.Faults, t.Seed)
		})
}

// DelaySweep declares E2 series 2: classification quality as the
// protocol's artificial-delay floor shrinks below separability, at a
// fixed probe budget.
func DelaySweep(sc SweepConfig, probes int, floors []time.Duration) experiment.Sweep {
	points := make([]experiment.Point, len(floors))
	for i, f := range floors {
		points[i] = experiment.Point{
			Label: fmt.Sprintf("delay-min=%dms", f/time.Millisecond),
			Value: float64(f) / float64(time.Millisecond),
		}
	}
	return classificationSweep("p2p-delay-floor", points, sc.Reps, sc.Seed,
		func(t experiment.Trial, pt experiment.Point) (ExperimentResult, error) {
			overlay := sc.Overlay
			overlay.DelayMin = time.Duration(pt.Value) * time.Millisecond
			return sc.trial(probes, overlay, sc.Faults, t.Seed)
		})
}

// LossSweep declares the E2 degradation series: classification quality
// and probe completeness as extra packet loss climbs, at a fixed probe
// budget with the investigator's retries compensating.
func LossSweep(sc SweepConfig, probes int, losses []float64) experiment.Sweep {
	points := make([]experiment.Point, len(losses))
	for i, l := range losses {
		points[i] = experiment.Point{Label: fmt.Sprintf("loss=%d%%", int(l*100+0.5)), Value: l}
	}
	return classificationSweep("p2p-loss", points, sc.Reps, sc.Seed,
		func(t experiment.Trial, pt experiment.Point) (ExperimentResult, error) {
			plan := sc.Faults
			plan.Loss = pt.Value
			return sc.trial(probes, sc.Overlay, plan, t.Seed)
		})
}

// ChurnSweep declares the E2 degradation series: classification quality
// and probe completeness as the fraction of time peers spend crashed
// climbs (mean outage 2s), at a fixed probe budget.
func ChurnSweep(sc SweepConfig, probes int, downFracs []float64) experiment.Sweep {
	points := make([]experiment.Point, len(downFracs))
	for i, f := range downFracs {
		points[i] = experiment.Point{Label: fmt.Sprintf("down=%d%%", int(f*100+0.5)), Value: f}
	}
	return classificationSweep("p2p-churn", points, sc.Reps, sc.Seed,
		func(t experiment.Trial, pt experiment.Point) (ExperimentResult, error) {
			plan := sc.Faults
			plan.Churn = faults.ChurnFraction(pt.Value, 2*time.Second)
			return sc.trial(probes, sc.Overlay, plan, t.Seed)
		})
}
