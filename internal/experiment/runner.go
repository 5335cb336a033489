package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"lawgate/internal/stats"
)

// ErrTrialTimeout reports a trial cut off by Runner.TrialTimeout. The
// trial's goroutine may still be running; its result is discarded.
var ErrTrialTimeout = errors.New("experiment: trial exceeded wall-clock timeout")

// TrialError wraps one failed trial with its identity, so a sweep
// failure names exactly which (point, rep, seed) to re-run.
type TrialError struct {
	Sweep string
	Point Point
	Trial Trial
	Err   error
}

// Error implements error.
func (e *TrialError) Error() string {
	return fmt.Sprintf("experiment: sweep %q point %q trial %d (seed %d): %v",
		e.Sweep, e.Point.Label, e.Trial.Rep, e.Trial.Seed, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *TrialError) Unwrap() error { return e.Err }

// PanicError is the cause inside a TrialError when the trial panicked.
// The recover happens in the worker, so one poisoned trial cannot take
// down the pool or lose the other trials' results.
type PanicError struct {
	// Value is what the trial passed to panic.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("trial panicked: %v", e.Value)
}

// Runner executes a sweep's trials on a bounded worker pool. The zero
// value runs on all CPUs with no per-trial deadline.
type Runner struct {
	// Workers bounds trial parallelism; 0 or negative means
	// runtime.GOMAXPROCS(0).
	Workers int
	// TrialTimeout, when positive, bounds each trial's wall-clock run
	// time; a trial that exceeds it fails with ErrTrialTimeout. Note
	// that which trials time out depends on the machine, so a sweep run
	// with a timeout is only byte-reproducible when no trial trips it —
	// prefer step budgets (netsim.SetStepBudget) for deterministic
	// runaway protection and the timeout as the wall-clock backstop.
	TrialTimeout time.Duration
}

// Run executes every trial of the sweep — each trial's seed derived
// from (sweep seed, point index, rep index), so results do not depend
// on worker count or scheduling order — and aggregates the samples
// into a Series. All trials are attempted even when some fail (a panic
// or timeout in one trial does not stop the pool); the joined
// per-trial errors are returned alongside the aggregation of the
// trials that survived, so callers can both report the failures and
// inspect the partial results.
func (r Runner) Run(ctx context.Context, sw Sweep) (Series, error) {
	if err := sw.Validate(); err != nil {
		return Series{}, err
	}
	workers := r.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	total := len(sw.Points) * sw.Reps
	if workers > total {
		workers = total
	}

	samples := make([]Sample, total)
	errs := make([]error, total)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= total || ctx.Err() != nil {
					return
				}
				pi, rep := i/sw.Reps, i%sw.Reps
				tr := Trial{
					Point: pi,
					Rep:   rep,
					Seed:  DeriveSeed(sw.Seed, int64(pi), int64(rep)),
				}
				s, err := r.runTrial(sw, tr, sw.Points[pi])
				if err != nil {
					errs[i] = &TrialError{Sweep: sw.Name, Point: sw.Points[pi], Trial: tr, Err: err}
					continue
				}
				samples[i] = s
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return Series{}, err
	}
	series, aggErr := aggregate(sw, samples, errs)
	if aggErr != nil {
		return Series{}, aggErr
	}
	return series, errors.Join(errs...)
}

// RunReport runs the sweeps in order and collects their series into a
// report named name. It stops at the first sweep that fails and names
// that sweep in the error.
func (r Runner) RunReport(ctx context.Context, name string, sweeps []Sweep) (Report, error) {
	report := Report{Name: name}
	for _, sw := range sweeps {
		series, err := r.Run(ctx, sw)
		if err != nil {
			return Report{}, fmt.Errorf("sweep %s: %w", sw.Name, err)
		}
		report.Series = append(report.Series, series)
	}
	return report, nil
}

// runTrial runs one trial with panic recovery and, when configured, a
// wall-clock deadline.
func (r Runner) runTrial(sw Sweep, tr Trial, p Point) (Sample, error) {
	if r.TrialTimeout <= 0 {
		return safeRun(sw, tr, p)
	}
	type outcome struct {
		s   Sample
		err error
	}
	// Buffered so a late finisher can deposit its result and exit even
	// after the deadline fired and nobody is listening.
	ch := make(chan outcome, 1)
	go func() {
		s, err := safeRun(sw, tr, p)
		ch <- outcome{s, err}
	}()
	timer := time.NewTimer(r.TrialTimeout)
	defer timer.Stop()
	select {
	case o := <-ch:
		return o.s, o.err
	case <-timer.C:
		return nil, fmt.Errorf("%w (%v)", ErrTrialTimeout, r.TrialTimeout)
	}
}

// safeRun invokes the sweep's trial function, converting a panic into a
// *PanicError so the pool keeps draining.
func safeRun(sw Sweep, tr Trial, p Point) (s Sample, err error) {
	defer func() {
		if v := recover(); v != nil {
			s, err = nil, &PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	return sw.Run(tr, p)
}

// aggregate folds per-trial samples into per-point metric summaries, in
// grid order, so the resulting Series (and its serialized forms) are
// deterministic. Failed trials (errs[i] != nil) are excluded: each
// point aggregates its surviving reps and records how many there were
// in Trials; a point with no survivors keeps an empty metric map.
func aggregate(sw Sweep, samples []Sample, errs []error) (Series, error) {
	prop := make(map[string]bool, len(sw.Proportions))
	for _, k := range sw.Proportions {
		prop[k] = true
	}
	out := Series{Sweep: sw.Name, Seed: sw.Seed, Reps: sw.Reps, Points: make([]PointResult, len(sw.Points))}
	for pi, p := range sw.Points {
		base := pi * sw.Reps
		var ok []Sample
		for rep := 0; rep < sw.Reps; rep++ {
			if errs[base+rep] == nil {
				ok = append(ok, samples[base+rep])
			}
		}
		pr := PointResult{Label: p.Label, Value: p.Value, Trials: len(ok), Metrics: map[string]Metric{}}
		if len(ok) == 0 {
			out.Points[pi] = pr
			continue
		}
		first := ok[0]
		for key := range first {
			xs := make([]float64, len(ok))
			successes := 0
			for rep, s := range ok {
				v, present := s[key]
				if !present {
					return Series{}, fmt.Errorf("experiment: sweep %q point %q: a trial is missing metric %q",
						sw.Name, p.Label, key)
				}
				xs[rep] = v
				if v >= 0.5 {
					successes++
				}
			}
			sum, err := stats.Summarize(xs)
			if err != nil {
				return Series{}, err
			}
			m := Metric{N: sum.N, Mean: sum.Mean, Std: sum.Std, CI95: sum.CI95}
			if prop[key] {
				m.Proportion = true
				if m.WilsonLo, m.WilsonHi, err = stats.Wilson(successes, len(ok)); err != nil {
					return Series{}, err
				}
			}
			pr.Metrics[key] = m
		}
		// A trial reporting extra keys the first surviving rep lacks is
		// the same contract breach as a missing key; catch it
		// symmetrically.
		for rep := 1; rep < len(ok); rep++ {
			if len(ok[rep]) != len(first) {
				return Series{}, fmt.Errorf("experiment: sweep %q point %q: surviving trials report %d and %d metrics",
					sw.Name, p.Label, len(ok[rep]), len(first))
			}
		}
		out.Points[pi] = pr
	}
	return out, nil
}
