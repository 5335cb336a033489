// Command tracewatermark runs the Section IV-B experiment sweep: DSSS
// PN-code flow-watermark detection through a Tor-like circuit, against the
// naive packet-count-correlation baseline, as functions of code length,
// cross-traffic noise, and modulation amplitude, plus the K-candidate
// lineup. Experiment E3.
//
// Trials run in parallel on the shared experiment harness; results are
// byte-identical for a given -seed regardless of -workers.
//
// With -faults PROFILE the sweeps run on a degraded substrate (see
// -faults help for the profile names) and two degradation series are
// appended: detection vs injected packet loss and vs reorder jitter.
// -trial-timeout and -max-steps bound each trial; a trial cut off by
// either bound fails the run with a joined error naming it.
//
// With -partitions P the load-scale series is appended: detection on
// the campus+ISP+Tor composite topology under growing background load,
// run on the sharded parallel engine with P partitions. The emitted
// results are identical for every P — only wall-clock time changes —
// so CI compares runs at different partition counts.
//
// Usage:
//
//	tracewatermark [-trials T] [-workers W] [-seed S]
//	               [-faults PROFILE] [-partitions P] [-trial-timeout D] [-max-steps N]
//	               [-cpuprofile FILE] [-memprofile FILE]
//	               [-json|-csv] [-smoke]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/profiling"
	"lawgate/internal/watermark"
)

func main() {
	var o options
	flag.IntVar(&o.trials, "trials", 5, "seeds per sweep point")
	flag.IntVar(&o.workers, "workers", 0, "parallel trial workers (0 = all CPUs)")
	flag.Int64Var(&o.seed, "seed", 1, "master seed; per-trial seeds derive from it")
	flag.StringVar(&o.faults, "faults", "",
		"fault profile ("+strings.Join(faults.Profiles(), ", ")+"); adds loss and jitter degradation series")
	flag.IntVar(&o.partitions, "partitions", 0,
		"run the load-scale series on the sharded engine with this many partitions (0 = skip)")
	flag.DurationVar(&o.trialTimeout, "trial-timeout", 0, "wall-clock bound per trial (0 = none)")
	flag.Int64Var(&o.maxSteps, "max-steps", 0, "simulator event bound per trial (0 = default)")
	flag.BoolVar(&o.json, "json", false, "emit results as JSON instead of text")
	flag.BoolVar(&o.csv, "csv", false, "emit results as CSV instead of text")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny CI sweep: 2-bit payload, 1 trial, 1 point per series")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracewatermark:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, o)
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracewatermark:", err)
		os.Exit(1)
	}
}

type options struct {
	trials, workers  int
	partitions       int
	seed             int64
	faults           string
	trialTimeout     time.Duration
	maxSteps         int64
	json, csv, smoke bool
}

// normalized applies the -smoke grid reductions to the options themselves
// so the rendered header always matches the grid actually run.
func (o options) normalized() options {
	if o.smoke {
		o.trials = 1
	}
	return o
}

// sweeps declares the E3 series for the given options. Naming a fault
// profile appends the loss and jitter degradation series on top of it.
func sweeps(o options) ([]experiment.Sweep, error) {
	base := watermark.DefaultExperimentConfig()
	base.MaxSteps = o.maxSteps
	degrees := []int{5, 6, 7, 8, 9}
	noises := []float64{0, 0.5, 1, 2, 4}
	amps := []float64{0.05, 0.10, 0.20, 0.30, 0.50}
	candidates := []int{2, 4, 8}
	losses := []float64{0, 0.05, 0.10, 0.20, 0.30}
	jitters := []time.Duration{0, 5 * time.Millisecond, 10 * time.Millisecond,
		20 * time.Millisecond, 40 * time.Millisecond}
	reps := o.trials
	lineup := watermark.DefaultLineupConfig()
	if o.smoke {
		base.Bits = 2
		degrees = []int{5}
		noises = []float64{0.5}
		amps = []float64{0.30}
		candidates = []int{2}
		losses = []float64{0, 0.20}
		jitters = []time.Duration{0, 20 * time.Millisecond}
		lineup.Bits = 2
	}
	if o.faults != "" {
		plan, err := faults.Profile(o.faults)
		if err != nil {
			return nil, err
		}
		base.Faults = plan
	}
	out := []experiment.Sweep{
		watermark.CodeSweep(base, reps, o.seed, degrees),
		watermark.NoiseSweep(base, reps, o.seed, noises),
		watermark.AmplitudeSweep(base, reps, o.seed, amps),
		watermark.LineupSweep(lineup, reps, o.seed, candidates),
	}
	if o.faults != "" {
		out = append(out,
			watermark.LossSweep(base, reps, o.seed, losses),
			watermark.JitterSweep(base, reps, o.seed, jitters),
		)
	}
	if o.partitions > 0 {
		scale := watermark.DefaultScaleConfig()
		scale.Partitions = o.partitions
		load := base
		hostCounts := []int{32, 96, 256}
		if o.smoke {
			load.CodeDegree = 5
			scale.HostsPerCampus = 4
			scale.TorRelays = 2
			hostCounts = []int{8, 16}
		}
		out = append(out, watermark.ScaleSweep(load, scale, reps, o.seed, hostCounts))
	}
	return out, nil
}

func run(w io.Writer, o options) error {
	o = o.normalized()
	sws, err := sweeps(o)
	if err != nil {
		return err
	}
	runner := experiment.Runner{Workers: o.workers, TrialTimeout: o.trialTimeout}
	report, err := runner.RunReport(context.Background(), "E3-dsss-watermark-traceback", sws)
	if err != nil {
		return err
	}
	switch {
	case o.json:
		return report.WriteJSON(w)
	case o.csv:
		return report.WriteCSV(w)
	}
	return render(w, o, report)
}

func render(w io.Writer, o options, report experiment.Report) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "E3 — DSSS watermark traceback vs baseline correlation (%d trials/point, seed %d)\n",
		o.trials, o.seed)
	fmt.Fprintln(tw, "Legal posture: court order suffices — packet rates are non-content (no wiretap order).")
	if o.faults != "" {
		fmt.Fprintf(tw, "Fault profile: %s\n", o.faults)
	}
	titles := map[string]string{
		"watermark-code-length": "detection vs PN-code length (noise=1.0)",
		"watermark-noise":       "detection vs cross-traffic noise",
		"watermark-amplitude":   "detection vs modulation amplitude (noise=1.0)",
		"watermark-lineup":      "lineup identification — which of K candidates is the downloader",
		"watermark-loss":        "detection vs injected packet loss (degradation, noise=1.0)",
		"watermark-jitter":      "detection vs injected reorder jitter (degradation, noise=1.0)",
		"watermark-load":        "detection vs background hosts on the shared trunk (composite topology)",
	}
	for _, s := range report.Series {
		fmt.Fprintf(tw, "\nSeries %s: %s\n", s.Sweep, titles[s.Sweep])
		if s.Sweep == "watermark-lineup" {
			fmt.Fprintln(tw, "point\tcorrect-ID rate [95%CI]")
			for _, p := range s.Points {
				c := p.Metric(watermark.MetricCorrect)
				fmt.Fprintf(tw, "%s\t%.2f [%.2f,%.2f]\n", p.Label, c.Mean, c.WilsonLo, c.WilsonHi)
			}
			continue
		}
		fmt.Fprintln(tw, "point\tDSSS-TPR [95%CI]\tDSSS-FPR\tmean-Z ±CI\tbase-TPR\tbase-FPR")
		for _, p := range s.Points {
			tp := p.Metric(watermark.MetricDSSSTP)
			z := p.Metric(watermark.MetricZ)
			fmt.Fprintf(tw, "%s\t%.2f [%.2f,%.2f]\t%.2f\t%.1f ±%.1f\t%.2f\t%.2f\n",
				p.Label, tp.Mean, tp.WilsonLo, tp.WilsonHi,
				p.Metric(watermark.MetricDSSSFP).Mean, z.Mean, z.CI95,
				p.Metric(watermark.MetricBaselineTP).Mean, p.Metric(watermark.MetricBaselineFP).Mean)
		}
	}
	return tw.Flush()
}
