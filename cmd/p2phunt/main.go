// Command p2phunt runs the Section IV-A experiment sweep: the anonymous-
// P2P timing attack's classification quality as a function of the probe
// budget and of the protocol's artificial-delay floor. Experiment E2.
//
// Trials run in parallel on the shared experiment harness; results are
// byte-identical for a given -seed regardless of -workers.
//
// With -faults PROFILE the sweeps run on a degraded substrate (see
// -faults help for the profile names) and two degradation series are
// appended: classification quality vs injected packet loss and vs peer
// churn. -trial-timeout and -max-steps bound each trial; a trial cut off
// by either bound fails the run with a joined error naming it.
//
// With -partitions P the swarm-scale series is appended: the timing
// attack inside a preferential-attachment swarm with organic query
// load, run on the sharded parallel engine with P partitions. The
// emitted results are identical for every P — only wall-clock time
// changes — so CI compares runs at different partition counts.
//
// Usage:
//
//	p2phunt [-neighbors N] [-sources S] [-trials T] [-workers W] [-seed S]
//	        [-faults PROFILE] [-partitions P] [-trial-timeout D] [-max-steps N]
//	        [-cpuprofile FILE] [-memprofile FILE]
//	        [-json|-csv] [-smoke]
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
	"lawgate/internal/p2p"
	"lawgate/internal/profiling"
)

func main() {
	var o options
	flag.IntVar(&o.neighbors, "neighbors", 16, "investigator neighbor count")
	flag.IntVar(&o.sources, "sources", 6, "neighbors that are true sources")
	flag.IntVar(&o.trials, "trials", 5, "seeds per sweep point")
	flag.IntVar(&o.workers, "workers", 0, "parallel trial workers (0 = all CPUs)")
	flag.Int64Var(&o.seed, "seed", 1, "master seed; per-trial seeds derive from it")
	flag.StringVar(&o.faults, "faults", "",
		"fault profile ("+strings.Join(faults.Profiles(), ", ")+"); adds loss and churn degradation series")
	flag.IntVar(&o.partitions, "partitions", 0,
		"run the swarm-scale series on the sharded engine with this many partitions (0 = skip)")
	flag.DurationVar(&o.trialTimeout, "trial-timeout", 0, "wall-clock bound per trial (0 = none)")
	flag.Int64Var(&o.maxSteps, "max-steps", 0, "simulator event bound per trial (0 = default)")
	flag.BoolVar(&o.json, "json", false, "emit results as JSON instead of text")
	flag.BoolVar(&o.csv, "csv", false, "emit results as CSV instead of text")
	flag.BoolVar(&o.smoke, "smoke", false, "tiny CI sweep: 4 neighbors, 1 trial, 2 points per series")
	var prof profiling.Flags
	prof.Register(flag.CommandLine)
	flag.Parse()
	stop, err := prof.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2phunt:", err)
		os.Exit(1)
	}
	err = run(os.Stdout, o)
	if stopErr := stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "p2phunt:", err)
		os.Exit(1)
	}
}

type options struct {
	neighbors, sources, trials, workers int
	partitions                          int
	seed                                int64
	faults                              string
	trialTimeout                        time.Duration
	maxSteps                            int64
	json, csv, smoke                    bool
}

// normalized applies the -smoke grid reductions to the options themselves
// so the rendered header always matches the grid actually run.
func (o options) normalized() options {
	if o.smoke {
		o.neighbors, o.sources, o.trials = 4, 2, 1
	}
	return o
}

// sweeps declares the E2 series for the given options. Naming a fault
// profile appends the loss and churn degradation series on top of it.
func sweeps(o options) ([]experiment.Sweep, error) {
	sc := p2p.SweepConfig{
		Neighbors: o.neighbors,
		Sources:   o.sources,
		Reps:      o.trials,
		Seed:      o.seed,
		Overlay:   p2p.DefaultConfig(p2p.ModeAnonymous),
		MaxSteps:  o.maxSteps,
	}
	probes := []int{1, 2, 4, 8, 16, 32}
	floors := []time.Duration{40, 60, 90, 120, 150, 200}
	losses := []float64{0, 0.05, 0.10, 0.20, 0.30, 0.40}
	downs := []float64{0, 0.05, 0.10, 0.20, 0.30}
	fixedProbes := 8
	if o.smoke {
		probes = []int{1, 4}
		floors = []time.Duration{90, 150}
		losses = []float64{0, 0.30}
		downs = []float64{0, 0.20}
		fixedProbes = 4
	}
	for i := range floors {
		floors[i] *= time.Millisecond
	}
	if o.faults != "" {
		plan, err := faults.Profile(o.faults)
		if err != nil {
			return nil, err
		}
		sc.Faults = plan
		// Degraded substrates get the resilient probing defaults.
		sc.ProbeRetries = 2
	}
	out := []experiment.Sweep{
		p2p.ProbeSweep(sc, probes),
		p2p.DelaySweep(sc, fixedProbes, floors),
	}
	if o.faults != "" {
		out = append(out,
			p2p.LossSweep(sc, fixedProbes, losses),
			p2p.ChurnSweep(sc, fixedProbes, downs),
		)
	}
	if o.partitions > 0 {
		scale := p2p.DefaultScaleConfig()
		scale.Reps = o.trials
		scale.Seed = o.seed
		scale.Partitions = o.partitions
		scale.MaxSteps = o.maxSteps
		scale.Faults = sc.Faults
		swarms := []int{200, 400, 800}
		if o.smoke {
			scale.Neighbors, scale.Sources, scale.Probes = 6, 2, 2
			swarms = []int{48, 96}
		}
		out = append(out, p2p.ScaleSweep(scale, swarms))
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
	report, err := runner.RunReport(context.Background(), "E2-p2p-timing-attack", sws)
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
	fmt.Fprintf(tw, "E2 — anonymous-P2P timing attack (%d neighbors, %d sources, %d trials/point, seed %d)\n",
		o.neighbors, o.sources, o.trials, o.seed)
	fmt.Fprintln(tw, "Legal posture: no warrant/court order/subpoena required (Table 1 scene 10).")
	if o.faults != "" {
		fmt.Fprintf(tw, "Fault profile: %s\n", o.faults)
	}
	titles := map[string]string{
		"p2p-probe-budget": "classification vs probe budget (OneSwarm delays 150-300 ms)",
		"p2p-delay-floor":  "classification vs delay floor (overlap when floor < ~170 ms)",
		"p2p-loss":         "classification vs injected packet loss (degradation)",
		"p2p-churn":        "classification vs peer churn down-fraction (degradation)",
		"p2p-swarm-scale":  "classification vs swarm size (organic load on the evidence channel)",
	}
	for _, s := range report.Series {
		fmt.Fprintf(tw, "\nSeries %s: %s\n", s.Sweep, titles[s.Sweep])
		fmt.Fprintln(tw, "point\taccuracy ±CI\tprecision\trecall\tanswered")
		for _, p := range s.Points {
			acc := p.Metric("accuracy")
			fmt.Fprintf(tw, "%s\t%.3f ±%.3f\t%.3f\t%.3f\t%.3f\n",
				p.Label, acc.Mean, acc.CI95, p.Metric("precision").Mean,
				p.Metric("recall").Mean, p.Metric("answered").Mean)
		}
	}
	return tw.Flush()
}
