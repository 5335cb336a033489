package watermark

import (
	"fmt"
	"time"

	"lawgate/internal/experiment"
)

// Detection sweep metric keys: per-trial 0/1 outcomes for the DSSS
// detector and the naive baseline on the guilty (tp) and innocent (fp)
// variants, plus the guilty trial's raw detection statistic.
const (
	MetricDSSSTP     = "dsss_tp"
	MetricDSSSFP     = "dsss_fp"
	MetricBaselineTP = "baseline_tp"
	MetricBaselineFP = "baseline_fp"
	MetricZ          = "z"
)

// detectionProportions are the 0/1 metrics Wilson intervals apply to.
var detectionProportions = []string{MetricDSSSTP, MetricDSSSFP, MetricBaselineTP, MetricBaselineFP}

// detectionMetrics is what the E3 detection series report per trial;
// degradationMetrics adds how much of the watermark the faulty
// substrate left the suspect-side capture.
var (
	detectionMetrics   = []string{MetricDSSSTP, MetricDSSSFP, MetricBaselineTP, MetricBaselineFP, MetricZ}
	degradationMetrics = []string{MetricDSSSTP, MetricDSSSFP, MetricBaselineTP, MetricBaselineFP, MetricZ, MetricCoverage}
)

// pairedSweep declares a guilty/innocent paired sweep: each trial runs
// trial twice on base at the trial's point — once with the tapped
// suspect downloading (detection), once with a decoy downloading (false
// positive) — on independent sub-seeds of the trial seed, and reports
// the metrics named by keys.
func pairedSweep(name string, base ExperimentConfig, reps int, seed int64, points []experiment.Point, keys []string,
	trial func(ExperimentConfig, experiment.Trial, experiment.Point) (ExperimentResult, error)) experiment.Sweep {
	return experiment.Sweep{
		Name:        name,
		Points:      points,
		Reps:        reps,
		Seed:        seed,
		Proportions: detectionProportions,
		Run: func(t experiment.Trial, pt experiment.Point) (experiment.Sample, error) {
			guilty := base
			guilty.Guilty = true
			guilty.Seed = t.SubSeed(0)
			resG, err := trial(guilty, t, pt)
			if err != nil {
				return nil, fmt.Errorf("guilty variant: %w", err)
			}
			innocent := base
			innocent.Guilty = false
			innocent.Seed = t.SubSeed(1)
			resI, err := trial(innocent, t, pt)
			if err != nil {
				return nil, fmt.Errorf("innocent variant: %w", err)
			}
			sample := make(experiment.Sample, len(keys))
			for _, k := range keys {
				switch k {
				case MetricDSSSTP:
					sample[k] = experiment.Bool(resG.Detected)
				case MetricDSSSFP:
					sample[k] = experiment.Bool(resI.Detected)
				case MetricBaselineTP:
					sample[k] = experiment.Bool(resG.BaselineDetected)
				case MetricBaselineFP:
					sample[k] = experiment.Bool(resI.BaselineDetected)
				case MetricZ:
					sample[k] = resG.Watermark.Z
				case MetricCoverage:
					sample[k] = resG.Watermark.Coverage
				}
			}
			return sample, nil
		},
	}
}

// CodeSweep declares E3 series 1: detection vs PN-code length (the
// "long PN code" knob), at full cross-traffic noise.
func CodeSweep(base ExperimentConfig, reps int, seed int64, degrees []int) experiment.Sweep {
	points := make([]experiment.Point, len(degrees))
	for i, d := range degrees {
		length := (1 << d) - 1
		points[i] = experiment.Point{Label: fmt.Sprintf("code=%d", length), Value: float64(length)}
	}
	return pairedSweep("watermark-code-length", base, reps, seed, points, detectionMetrics,
		func(c ExperimentConfig, t experiment.Trial, _ experiment.Point) (ExperimentResult, error) {
			c.CodeDegree = degrees[t.Point]
			c.NoiseRate = 1.0
			return RunExperiment(c)
		})
}

// NoiseSweep declares E3 series 2: detection vs cross-traffic intensity
// at the suspect, at the base config's code length.
func NoiseSweep(base ExperimentConfig, reps int, seed int64, noises []float64) experiment.Sweep {
	points := make([]experiment.Point, len(noises))
	for i, n := range noises {
		points[i] = experiment.Point{Label: fmt.Sprintf("noise=%.1f", n), Value: n}
	}
	return pairedSweep("watermark-noise", base, reps, seed, points, detectionMetrics,
		func(c ExperimentConfig, _ experiment.Trial, pt experiment.Point) (ExperimentResult, error) {
			c.NoiseRate = pt.Value
			return RunExperiment(c)
		})
}

// AmplitudeSweep declares E3 series 3: detection vs modulation
// amplitude, at full cross-traffic noise.
func AmplitudeSweep(base ExperimentConfig, reps int, seed int64, amps []float64) experiment.Sweep {
	points := make([]experiment.Point, len(amps))
	for i, a := range amps {
		points[i] = experiment.Point{Label: fmt.Sprintf("amplitude=%.2f", a), Value: a}
	}
	return pairedSweep("watermark-amplitude", base, reps, seed, points, detectionMetrics,
		func(c ExperimentConfig, _ experiment.Trial, pt experiment.Point) (ExperimentResult, error) {
			c.Amplitude = pt.Value
			c.NoiseRate = 1.0
			return RunExperiment(c)
		})
}

// MetricCoverage is the fraction of the watermark the suspect-side
// capture covered in the guilty trial — the honest-degradation figure a
// lossy substrate reduces.
const MetricCoverage = "coverage"

// LossSweep declares the E3 robustness series: detection vs injected
// substrate packet loss, at full cross-traffic noise.
func LossSweep(base ExperimentConfig, reps int, seed int64, losses []float64) experiment.Sweep {
	points := make([]experiment.Point, len(losses))
	for i, l := range losses {
		points[i] = experiment.Point{Label: fmt.Sprintf("loss=%.0f%%", l*100), Value: l}
	}
	return pairedSweep("watermark-loss", base, reps, seed, points, degradationMetrics,
		func(c ExperimentConfig, _ experiment.Trial, pt experiment.Point) (ExperimentResult, error) {
			c.NoiseRate = 1.0
			c.Faults.Loss = pt.Value
			return RunExperiment(c)
		})
}

// JitterSweep declares the E3 robustness series: detection vs injected
// reorder jitter — every packet delayed by a uniform extra amount up to
// the point's spread — at full cross-traffic noise.
func JitterSweep(base ExperimentConfig, reps int, seed int64, spreads []time.Duration) experiment.Sweep {
	points := make([]experiment.Point, len(spreads))
	for i, s := range spreads {
		points[i] = experiment.Point{
			Label: fmt.Sprintf("jitter=%v", s),
			Value: float64(s) / float64(time.Millisecond),
		}
	}
	return pairedSweep("watermark-jitter", base, reps, seed, points, degradationMetrics,
		func(c ExperimentConfig, t experiment.Trial, _ experiment.Point) (ExperimentResult, error) {
			c.NoiseRate = 1.0
			if spread := spreads[t.Point]; spread > 0 {
				c.Faults.Reorder = 1.0
				c.Faults.ReorderSpread = spread
			}
			return RunExperiment(c)
		})
}

// Lineup sweep metric keys.
const (
	// MetricCorrect: the detector named exactly the configured guilty
	// candidate (or no one, in an all-innocent control).
	MetricCorrect = "correct"
	// MetricIdentified: the detector named some candidate.
	MetricIdentified = "identified"
)

// LineupSweep declares E3 series 4: correct-identification rate vs the
// candidate count K. The guilty index rotates with the repetition so a
// position bias cannot masquerade as accuracy.
func LineupSweep(base LineupConfig, reps int, seed int64, candidates []int) experiment.Sweep {
	points := make([]experiment.Point, len(candidates))
	for i, k := range candidates {
		points[i] = experiment.Point{Label: fmt.Sprintf("candidates=%d", k), Value: float64(k)}
	}
	return experiment.Sweep{
		Name:        "watermark-lineup",
		Points:      points,
		Reps:        reps,
		Seed:        seed,
		Proportions: []string{MetricCorrect, MetricIdentified},
		Run: func(t experiment.Trial, pt experiment.Point) (experiment.Sample, error) {
			lc := base
			lc.Suspects = int(pt.Value)
			lc.Guilty = t.Rep % lc.Suspects
			lc.Seed = t.Seed
			res, err := RunLineup(lc)
			if err != nil {
				return nil, err
			}
			return experiment.Sample{
				MetricCorrect:    experiment.Bool(res.Correct),
				MetricIdentified: experiment.Bool(res.Identified >= 0),
			}, nil
		},
	}
}
