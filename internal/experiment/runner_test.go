package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"lawgate/internal/stats"
)

// syntheticSweep is a deterministic function of the trial seed with
// deliberately uneven per-trial runtimes, so scheduling differences
// between worker counts would surface any order dependence.
func syntheticSweep(points, reps int) Sweep {
	pts := make([]Point, points)
	for i := range pts {
		pts[i] = Point{Label: fmt.Sprintf("p=%d", i), Value: float64(i)}
	}
	return Sweep{
		Name:        "synthetic",
		Points:      pts,
		Reps:        reps,
		Seed:        99,
		Proportions: []string{"hit"},
		Run: func(t Trial, p Point) (Sample, error) {
			r := rand.New(rand.NewSource(t.Seed))
			if t.Rep%2 == 1 {
				time.Sleep(time.Duration(r.Intn(3)) * time.Millisecond)
			}
			v := r.Float64() + p.Value
			return Sample{"value": v, "hit": Bool(v > p.Value+0.5)}, nil
		},
	}
}

func TestRunnerDeterministicAcrossWorkerCounts(t *testing.T) {
	sw := syntheticSweep(4, 6)
	var blobs [][]byte
	for _, workers := range []int{1, 4, runtime.NumCPU()} {
		series, err := Runner{Workers: workers}.Run(context.Background(), sw)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		b, err := series.JSON()
		if err != nil {
			t.Fatal(err)
		}
		blobs = append(blobs, b)
	}
	for i := 1; i < len(blobs); i++ {
		if !bytes.Equal(blobs[0], blobs[i]) {
			t.Errorf("serialized series %d differs from serial run", i)
		}
	}
}

func TestRunnerAggregation(t *testing.T) {
	// Re-derive the expected per-point statistics by hand.
	sw := syntheticSweep(2, 5)
	series, err := Runner{Workers: 1}.Run(context.Background(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(series.Points) != 2 || series.Sweep != "synthetic" || series.Reps != 5 {
		t.Fatalf("series shape: %+v", series)
	}
	for pi, p := range series.Points {
		xs := make([]float64, 5)
		hits := 0
		for rep := 0; rep < 5; rep++ {
			tr := Trial{Point: pi, Rep: rep, Seed: DeriveSeed(sw.Seed, int64(pi), int64(rep))}
			s, err := sw.Run(tr, sw.Points[pi])
			if err != nil {
				t.Fatal(err)
			}
			xs[rep] = s["value"]
			if s["hit"] >= 0.5 {
				hits++
			}
		}
		want, err := stats.Summarize(xs)
		if err != nil {
			t.Fatal(err)
		}
		got := p.Metric("value")
		if got.N != want.N || math.Abs(got.Mean-want.Mean) > 1e-12 || math.Abs(got.CI95-want.CI95) > 1e-12 {
			t.Errorf("point %d value metric = %+v, want %+v", pi, got, want)
		}
		if got.Proportion {
			t.Errorf("point %d: value wrongly marked a proportion", pi)
		}
		hit := p.Metric("hit")
		if !hit.Proportion {
			t.Fatalf("point %d: hit not marked a proportion", pi)
		}
		lo, hi, err := stats.Wilson(hits, 5)
		if err != nil {
			t.Fatal(err)
		}
		if hit.WilsonLo != lo || hit.WilsonHi != hi {
			t.Errorf("point %d Wilson = [%v,%v], want [%v,%v]", pi, hit.WilsonLo, hit.WilsonHi, lo, hi)
		}
	}
}

func TestRunnerSurfacesTrialErrors(t *testing.T) {
	boom := errors.New("boom")
	sw := Sweep{
		Name:   "failing",
		Points: []Point{{Label: "a", Value: 0}, {Label: "b", Value: 1}},
		Reps:   2,
		Seed:   1,
		Run: func(t Trial, p Point) (Sample, error) {
			if p.Label == "b" && t.Rep == 1 {
				return nil, boom
			}
			return Sample{"x": 1}, nil
		},
	}
	_, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("err %v does not expose a TrialError", err)
	}
	if te.Point.Label != "b" || te.Trial.Rep != 1 {
		t.Errorf("TrialError identity = point %q rep %d, want b/1", te.Point.Label, te.Trial.Rep)
	}
	if !strings.Contains(err.Error(), "seed") {
		t.Errorf("error %q does not name the seed to re-run", err)
	}
}

// TestRunnerPoisonedTrial: one panicking trial in a 100-trial sweep
// yields exactly one *TrialError while the other 99 trials aggregate.
func TestRunnerPoisonedTrial(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{Label: fmt.Sprintf("p%d", i), Value: float64(i)}
	}
	sw := Sweep{
		Name:   "poisoned",
		Points: pts,
		Reps:   10,
		Seed:   5,
		Run: func(tr Trial, p Point) (Sample, error) {
			if tr.Point == 3 && tr.Rep == 7 {
				panic("poisoned trial")
			}
			return Sample{"x": float64(tr.Rep)}, nil
		},
	}
	series, err := Runner{Workers: 4}.Run(context.Background(), sw)
	if err == nil {
		t.Fatal("poisoned sweep reported no error")
	}
	var te *TrialError
	if !errors.As(err, &te) {
		t.Fatalf("err %v exposes no TrialError", err)
	}
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "poisoned trial" || len(pe.Stack) == 0 {
		t.Fatalf("err %v exposes no PanicError with value and stack", err)
	}
	if te.Trial.Point != 3 || te.Trial.Rep != 7 {
		t.Errorf("TrialError identity = %d/%d, want 3/7", te.Trial.Point, te.Trial.Rep)
	}
	joined, ok := err.(interface{ Unwrap() []error })
	if !ok {
		t.Fatalf("err %T is not a joined error", err)
	}
	if n := len(joined.Unwrap()); n != 1 {
		t.Errorf("joined error count = %d, want exactly 1", n)
	}
	total := 0
	for pi, p := range series.Points {
		total += p.Trials
		want := 10
		if pi == 3 {
			want = 9
		}
		if p.Trials != want {
			t.Errorf("point %d aggregated %d trials, want %d", pi, p.Trials, want)
		}
		if p.Metrics["x"].N != p.Trials {
			t.Errorf("point %d metric N = %d, want %d", pi, p.Metrics["x"].N, p.Trials)
		}
	}
	if total != 99 {
		t.Errorf("aggregated %d trials, want 99", total)
	}
}

// TestRunnerAllTrialsOfPointFail: a point with no surviving trials keeps
// an empty metric map; other points still aggregate.
func TestRunnerAllTrialsOfPointFail(t *testing.T) {
	boom := errors.New("boom")
	sw := Sweep{
		Name:   "half-dead",
		Points: []Point{{Label: "dead"}, {Label: "alive", Value: 1}},
		Reps:   3,
		Seed:   2,
		Run: func(tr Trial, p Point) (Sample, error) {
			if p.Label == "dead" {
				return nil, boom
			}
			return Sample{"x": 1}, nil
		},
	}
	series, err := Runner{Workers: 2}.Run(context.Background(), sw)
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if series.Points[0].Trials != 0 || len(series.Points[0].Metrics) != 0 {
		t.Errorf("dead point = %+v, want zero trials and no metrics", series.Points[0])
	}
	if series.Points[1].Trials != 3 || series.Points[1].Metrics["x"].Mean != 1 {
		t.Errorf("alive point = %+v", series.Points[1])
	}
}

// TestRunnerTrialTimeout: a hung trial is cut off with ErrTrialTimeout
// while fast trials complete; the pool keeps draining.
func TestRunnerTrialTimeout(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	sw := Sweep{
		Name:   "hung",
		Points: []Point{{Label: "a"}, {Label: "b", Value: 1}},
		Reps:   2,
		Seed:   3,
		Run: func(tr Trial, p Point) (Sample, error) {
			if p.Label == "a" && tr.Rep == 0 {
				<-release // hangs until the test exits
			}
			return Sample{"x": 1}, nil
		},
	}
	series, err := Runner{Workers: 2, TrialTimeout: 50 * time.Millisecond}.Run(context.Background(), sw)
	if !errors.Is(err, ErrTrialTimeout) {
		t.Fatalf("err = %v, want ErrTrialTimeout", err)
	}
	var te *TrialError
	if !errors.As(err, &te) || te.Point.Label != "a" || te.Trial.Rep != 0 {
		t.Fatalf("timeout not attributed to the hung trial: %v", err)
	}
	if series.Points[0].Trials != 1 || series.Points[1].Trials != 2 {
		t.Errorf("surviving trials = %d/%d, want 1/2",
			series.Points[0].Trials, series.Points[1].Trials)
	}
}

func TestRunnerInconsistentMetricsRejected(t *testing.T) {
	sw := Sweep{
		Name:   "ragged",
		Points: []Point{{Label: "a"}},
		Reps:   2,
		Seed:   1,
		Run: func(t Trial, p Point) (Sample, error) {
			if t.Rep == 0 {
				return Sample{"x": 1}, nil
			}
			return Sample{"y": 1}, nil
		},
	}
	if _, err := (Runner{Workers: 1}).Run(context.Background(), sw); err == nil {
		t.Fatal("ragged metric sets not rejected")
	}
	extra := Sweep{
		Name:   "extra",
		Points: []Point{{Label: "a"}},
		Reps:   2,
		Seed:   1,
		Run: func(t Trial, p Point) (Sample, error) {
			if t.Rep == 1 {
				return Sample{"x": 1, "y": 2}, nil
			}
			return Sample{"x": 1}, nil
		},
	}
	if _, err := (Runner{Workers: 1}).Run(context.Background(), extra); err == nil {
		t.Fatal("extra metrics in later trials not rejected")
	}
}

func TestRunnerValidates(t *testing.T) {
	cases := []Sweep{
		{},
		{Name: "n"},
		{Name: "n", Points: []Point{{}}},
		{Name: "n", Points: []Point{{}}, Reps: 1},
	}
	for i, sw := range cases {
		if _, err := (Runner{}).Run(context.Background(), sw); !errors.Is(err, ErrBadSweep) {
			t.Errorf("case %d: err = %v, want ErrBadSweep", i, err)
		}
	}
}

func TestRunReport(t *testing.T) {
	a, b := syntheticSweep(2, 2), syntheticSweep(1, 3)
	b.Name = "second"
	report, err := Runner{Workers: 2}.RunReport(context.Background(), "E0", []Sweep{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if report.Name != "E0" || len(report.Series) != 2 ||
		report.Series[0].Sweep != "synthetic" || report.Series[1].Sweep != "second" {
		t.Fatalf("report = %q with %d series, want E0 with synthetic then second", report.Name, len(report.Series))
	}
	b.Reps = 0
	_, err = Runner{Workers: 2}.RunReport(context.Background(), "E0", []Sweep{a, b})
	if !errors.Is(err, ErrBadSweep) || !strings.Contains(err.Error(), "sweep second:") {
		t.Fatalf("err = %v, want ErrBadSweep naming sweep second", err)
	}
}

func TestRunnerContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sw := syntheticSweep(2, 2)
	if _, err := (Runner{Workers: 2}).Run(ctx, sw); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestSeriesCSV(t *testing.T) {
	series, err := Runner{Workers: 1}.Run(context.Background(), syntheticSweep(2, 3))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := series.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// header + 2 points x 2 metrics
	if len(lines) != 5 {
		t.Fatalf("CSV line count = %d, want 5:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "sweep,point,value,trials,metric") {
		t.Errorf("CSV header = %q", lines[0])
	}
	var buf2 bytes.Buffer
	report := Report{Name: "r", Series: []Series{series, series}}
	if err := report.WriteCSV(&buf2); err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(buf2.String()), "\n")); got != 9 {
		t.Errorf("report CSV line count = %d, want 9 (one shared header)", got)
	}
}

func TestBool(t *testing.T) {
	if Bool(true) != 1 || Bool(false) != 0 {
		t.Error("Bool encoding broken")
	}
}
