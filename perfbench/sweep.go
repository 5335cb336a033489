package main

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"syscall"
	"time"

	"lawgate/internal/experiment"
)

// setupRepeats is how many times a sweep run times its set-up. The
// samples are spread over the run, setupBurst of them before every
// second pass, so their median sees the same machine the passes do.
const (
	setupRepeats = 15
	setupBurst   = 3
)

// pass is one run of every series in a grid.
type pass struct {
	series []experiment.Series
	wall   time.Duration
	// halfWall is each half's wall time, in grid order.
	halfWall []time.Duration
	// cpu is the process CPU time the pass took.
	cpu time.Duration
	// trials and halves hold each trial's wall time and the index of the
	// half it belongs to, in completion order.
	trials []time.Duration
	halves []int
}

// runPass runs the grid's series in order through experiment.Runner,
// timing every trial. With a tracer it also records a span per pass,
// per series and per trial (the trial span's label is half/sweep).
func runPass(g sweepGrid, tr *tracer) (*pass, error) {
	p := &pass{}
	var mu sync.Mutex
	root := -1
	if tr != nil {
		root = tr.begin(spPass, 0, -1, "")
	}
	cpu0, err := processCPU()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for hi, half := range g {
		runner := experiment.Runner{Workers: half.workers}
		halfStart := time.Now()
		for _, sw := range half.sweeps {
			label := half.name + "/" + sw.Name
			parent := -1
			if tr != nil {
				parent = tr.begin(spSweep, 0, root, label)
			}
			run := sw.Run
			sw.Run = func(t experiment.Trial, pt experiment.Point) (experiment.Sample, error) {
				s := -1
				if tr != nil {
					s = tr.begin(spTrial, t.Point*sw.Reps+t.Rep, parent, label)
				}
				t0 := time.Now()
				sample, err := run(t, pt)
				d := time.Since(t0)
				if tr != nil {
					tr.end(s)
				}
				mu.Lock()
				p.trials = append(p.trials, d)
				p.halves = append(p.halves, hi)
				mu.Unlock()
				return sample, err
			}
			series, err := runner.Run(context.Background(), sw)
			if tr != nil {
				tr.end(parent)
			}
			if err != nil {
				return p, fmt.Errorf("sweep %s: %w", sw.Name, err)
			}
			p.series = append(p.series, series)
		}
		p.halfWall = append(p.halfWall, time.Since(halfStart))
	}
	p.wall = time.Since(start)
	if tr != nil {
		tr.end(root)
	}
	cpu1, err := processCPU()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	return p, nil
}

// processCPU is the CPU time this process has used, user and system,
// over all its threads. Time the hypervisor gave to other guests is not
// in it.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// sweepSetup times the way to the sweep's first result: declaring the
// grid and running the first trial of its first series.
func sweepSetup(build func() sweepGrid) (time.Duration, error) {
	start := time.Now()
	sw := build()[0].sweeps[0]
	t := experiment.Trial{Seed: experiment.DeriveSeed(sw.Seed, 0, 0)}
	if _, err := sw.Run(t, sw.Points[0]); err != nil {
		return 0, fmt.Errorf("first trial of %s: %w", sw.Name, err)
	}
	return time.Since(start), nil
}

// sweepRun is what one sweep workload run observed.
type sweepRun struct {
	setup    []float64
	passes   []*pass
	failed   int
	problems []string
	// peakMB is the process's peak RSS during each pass. It follows the
	// machine's speed: the live heap at each collection is higher when
	// the trials get more CPU (a pass peaked at 65 MB alone and at 50 MB
	// beside a CPU hog).
	peakMB []float64
	// heldMB is the process's RSS after each pass, once a full collection
	// has returned the garbage to the OS: what the sweep holds from one
	// pass to the next.
	heldMB []float64
	// traced holds the trace run's spans; overhead compares its traced
	// pass with its untraced one.
	traced   *tracer
	overhead float64
}

func (r *sweepRun) attempted() int {
	n := 0
	for _, p := range r.passes {
		n += len(p.trials)
	}
	return n
}

func (r *sweepRun) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// measureSweeps runs passes over the grid until they add up to dur (and
// at least two), requiring every pass to reproduce the first pass's
// series exactly, and times the set-up between them. With trace set it
// instead runs one untraced and one traced pass and requires the two to
// agree.
func measureSweeps(build func() sweepGrid, dur time.Duration, trace bool) (*sweepRun, error) {
	run := &sweepRun{}
	takeSetup := func() error {
		d, err := sweepSetup(build)
		if err != nil {
			return err
		}
		run.setup = append(run.setup, d.Seconds())
		return nil
	}
	g := build()
	var measured time.Duration
	for len(run.passes) < 2 || (!trace && measured < dur) {
		for i := 0; !trace && i < setupBurst && len(run.setup) < setupRepeats && len(run.passes)%2 == 0; i++ {
			if err := takeSetup(); err != nil {
				return nil, err
			}
		}
		var tr *tracer
		if trace && len(run.passes) == 1 {
			tr = newTracer()
			run.traced = tr
		}
		if err := resetPeakRSS("self"); err != nil {
			return nil, err
		}
		p, err := runPass(g, tr)
		if err != nil && p == nil {
			return nil, err
		}
		if err != nil {
			// Count each failed trial; Runner joins their errors.
			n := 1
			if j, ok := errors.Unwrap(err).(interface{ Unwrap() []error }); ok {
				n = len(j.Unwrap())
			}
			run.failed += n - 1
			run.fail("%v", err)
			run.passes = append(run.passes, p)
			return run, nil
		}
		if len(run.passes) > 0 && !reflect.DeepEqual(p.series, run.passes[0].series) {
			run.fail("pass %d produced different series than pass 0 on the same seed", len(run.passes))
		}
		run.passes = append(run.passes, p)
		measured += p.wall
		peak, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		run.peakMB = append(run.peakMB, peak)
		debug.FreeOSMemory()
		held, err := procStatusMB("self", "VmRSS")
		if err != nil {
			return nil, err
		}
		run.heldMB = append(run.heldMB, held)
	}
	for !trace && len(run.setup) < setupRepeats {
		if err := takeSetup(); err != nil {
			return nil, err
		}
	}
	if trace {
		run.overhead = run.passes[1].wall.Seconds()/run.passes[0].wall.Seconds() - 1
	}
	return run, nil
}

// family names the layer a trial span exercises, "p2p" or "watermark",
// from its half/sweep label.
func family(label string) string {
	_, sweep, _ := strings.Cut(label, "/")
	f, _, _ := strings.Cut(sweep, "-")
	return f
}
