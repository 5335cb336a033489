// Command benchcheck validates a BENCH_*.json produced by
// scripts/bench.sh and prints each benchmark next to its baseline, so
// CI can prove the bench tooling still works and a human can read the
// before/after deltas at a glance.
//
// Usage:
//
//	go run ./scripts/benchcheck [-min-speedup NAME=FACTOR ...] \
//	    [-max-ns NAME=NS ...] [-max-allocs NAME=N ...] [FILE]
//
// FILE defaults to BENCH_netsim.json. Exits non-zero when the file is
// missing, malformed, or structurally empty.
//
// Each -min-speedup NAME=FACTOR (repeatable) asserts that benchmark
// NAME runs at least FACTOR times faster than its embedded baseline
// entry (baseline ns/op divided by current ns/op >= FACTOR). This is
// how CI pins a claimed optimization: the committed BENCH file must
// keep proving the speedup it was merged for.
//
// -max-ns NAME=NS and -max-allocs NAME=N (both repeatable) are
// absolute budgets, independent of any baseline: benchmark NAME must
// show ns_per_op <= NS, or allocs_per_op <= N. These pin hard targets
// like "the ledger append stays under a microsecond and allocates
// nothing" even when the baseline entry describes replaced code.
//
// -min-pair-speedup BASE:FAST:FACTOR and -max-pair-ratio A:B:FACTOR
// (both repeatable) compare two benchmarks from the SAME file —
// no baseline involved, so they gate claims measured in one run, like
// "the 8-partition engine beats the 1-partition engine 3x on this
// machine". The separator is ':' because benchmark names carry '/' and
// '='. -min-pair-speedup asserts ns(BASE)/ns(FAST) >= FACTOR;
// -max-pair-ratio asserts ns(B)/ns(A) <= FACTOR (an overhead bound for
// machines that cannot demonstrate the speedup).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"
)

type entry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	// OpsPerSec is set by throughput-style benchmarks (the lawgated
	// chaos bench reports rulings/sec); 0 when not applicable.
	OpsPerSec float64 `json:"ops_per_sec,omitempty"`
	// EventsPerSec and NodesPerSec are set by the sharded-engine
	// macro-benchmark; 0 when not applicable.
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
	NodesPerSec  float64 `json:"nodes_per_sec,omitempty"`
}

type baseline struct {
	Note       string  `json:"note"`
	Benchmarks []entry `json:"benchmarks"`
}

type report struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	// Cores records the machine the file was produced on; CI uses it
	// to decide whether a parallel-speedup claim is testable there.
	Cores      int       `json:"cores,omitempty"`
	Count      int       `json:"count"`
	Benchmarks []entry   `json:"benchmarks"`
	Baseline   *baseline `json:"baseline"`
}

// pairAssert is one NAME:NAME:FACTOR comparison between two benchmarks
// of the current file.
type pairAssert struct {
	a, b   string
	factor float64
}

// pairValues collects repeated A:B:FACTOR flag assertions. ':' is the
// separator because benchmark names contain '/' and '='.
type pairValues struct {
	pairs []pairAssert
}

func (s *pairValues) String() string {
	parts := make([]string, 0, len(s.pairs))
	for _, p := range s.pairs {
		parts = append(parts, fmt.Sprintf("%s:%s:%g", p.a, p.b, p.factor))
	}
	return strings.Join(parts, ",")
}

func (s *pairValues) Set(v string) error {
	i := strings.LastIndex(v, ":")
	if i < 0 {
		return fmt.Errorf("want NAME:NAME:FACTOR, got %q", v)
	}
	factor, err := strconv.ParseFloat(v[i+1:], 64)
	if err != nil || factor <= 0 {
		return fmt.Errorf("invalid FACTOR in %q", v)
	}
	a, b, ok := strings.Cut(v[:i], ":")
	if !ok || a == "" || b == "" {
		return fmt.Errorf("want NAME:NAME:FACTOR, got %q", v)
	}
	s.pairs = append(s.pairs, pairAssert{a: a, b: b, factor: factor})
	return nil
}

// namedValues collects repeated NAME=VALUE flag assertions.
type namedValues struct {
	vals       map[string]float64
	allowZero  bool
	valueLabel string
}

func (s *namedValues) String() string {
	parts := make([]string, 0, len(s.vals))
	for name, f := range s.vals {
		parts = append(parts, fmt.Sprintf("%s=%g", name, f))
	}
	return strings.Join(parts, ",")
}

func (s *namedValues) Set(v string) error {
	// Cut at the last '=': sub-benchmark names carry their own, as in
	// BenchmarkSweepRunner/p2p-probes/workers=1=47548.
	i := strings.LastIndexByte(v, '=')
	if i <= 0 {
		return fmt.Errorf("want NAME=%s, got %q", s.valueLabel, v)
	}
	name, valStr := v[:i], v[i+1:]
	val, err := strconv.ParseFloat(valStr, 64)
	if err != nil || val < 0 || (val == 0 && !s.allowZero) {
		return fmt.Errorf("invalid %s in %q", s.valueLabel, v)
	}
	if s.vals == nil {
		s.vals = map[string]float64{}
	}
	s.vals[name] = val
	return nil
}

func main() {
	minSpeedups := &namedValues{valueLabel: "FACTOR"}
	maxNs := &namedValues{valueLabel: "NS"}
	maxAllocs := &namedValues{valueLabel: "N", allowZero: true}
	minOps := &namedValues{valueLabel: "OPS"}
	pairSpeedups := &pairValues{}
	pairRatios := &pairValues{}
	flag.Var(minSpeedups, "min-speedup",
		"assert NAME runs >= FACTOR times faster than its baseline (repeatable)")
	flag.Var(maxNs, "max-ns",
		"assert NAME's ns_per_op <= NS, an absolute budget (repeatable)")
	flag.Var(maxAllocs, "max-allocs",
		"assert NAME's allocs_per_op <= N, an absolute budget (repeatable)")
	flag.Var(minOps, "min-ops",
		"assert NAME's ops_per_sec >= OPS, an absolute throughput floor (repeatable)")
	flag.Var(pairSpeedups, "min-pair-speedup",
		"assert ns(BASE)/ns(FAST) >= FACTOR between two current benchmarks, as BASE:FAST:FACTOR (repeatable)")
	flag.Var(pairRatios, "max-pair-ratio",
		"assert ns(B)/ns(A) <= FACTOR between two current benchmarks, as A:B:FACTOR (repeatable)")
	flag.Parse()
	if err := run(flag.Args(), minSpeedups.vals, maxNs.vals, maxAllocs.vals, minOps.vals,
		pairSpeedups.pairs, pairRatios.pairs); err != nil {
		fmt.Fprintln(os.Stderr, "benchcheck:", err)
		os.Exit(1)
	}
}

func run(args []string, minSpeedups, maxNs, maxAllocs, minOps map[string]float64,
	pairSpeedups, pairRatios []pairAssert) error {
	path := "BENCH_netsim.json"
	if len(args) > 0 {
		path = args[0]
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != "lawgate-bench/v1" {
		return fmt.Errorf("%s: schema %q, want lawgate-bench/v1", path, r.Schema)
	}
	if r.Count < 1 {
		return fmt.Errorf("%s: count %d, want >= 1", path, r.Count)
	}
	if len(r.Benchmarks) == 0 {
		return fmt.Errorf("%s: no benchmarks recorded", path)
	}
	base := map[string]entry{}
	if r.Baseline != nil {
		for _, b := range r.Baseline.Benchmarks {
			base[b.Name] = b
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	host := r.Go
	if r.Cores > 0 {
		host = fmt.Sprintf("%s, %d cores", r.Go, r.Cores)
	}
	fmt.Fprintf(tw, "%s: %d benchmarks (%s, median of %d)\n", path, len(r.Benchmarks), host, r.Count)
	fmt.Fprintln(tw, "benchmark\tns/op\tallocs/op\tvs baseline ns\tvs baseline allocs")
	current := map[string]entry{}
	for _, b := range r.Benchmarks {
		if b.Name == "" {
			return fmt.Errorf("%s: benchmark with empty name", path)
		}
		// Metric-only entries (e.g. the chaos bench's allocs/request
		// counter) carry no timing; require at least one positive
		// metric so an all-zero entry still fails loudly.
		if b.NsPerOp <= 0 && b.AllocsPerOp <= 0 && b.OpsPerSec <= 0 &&
			b.EventsPerSec <= 0 && b.NodesPerSec <= 0 {
			return fmt.Errorf("%s: %s: no positive metric (ns_per_op %v)", path, b.Name, b.NsPerOp)
		}
		current[b.Name] = b
		nsDelta, allocDelta := "-", "-"
		if old, ok := base[b.Name]; ok {
			nsDelta = delta(old.NsPerOp, b.NsPerOp)
			allocDelta = delta(old.AllocsPerOp, b.AllocsPerOp)
		}
		fmt.Fprintf(tw, "%s\t%.4g\t%g\t%s\t%s\n", b.Name, b.NsPerOp, b.AllocsPerOp, nsDelta, allocDelta)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	for name, factor := range minSpeedups {
		b, ok := current[name]
		if !ok {
			return fmt.Errorf("%s: -min-speedup %s: no such benchmark", path, name)
		}
		old, ok := base[name]
		if !ok {
			return fmt.Errorf("%s: -min-speedup %s: no baseline entry", path, name)
		}
		if b.NsPerOp <= 0 || old.NsPerOp <= 0 {
			return fmt.Errorf("%s: -min-speedup %s: entry has no timing data", path, name)
		}
		got := old.NsPerOp / b.NsPerOp
		if got < factor {
			return fmt.Errorf("%s: %s speedup %.2fx (baseline %.4g ns/op -> %.4g ns/op), want >= %.2fx",
				path, name, got, old.NsPerOp, b.NsPerOp, factor)
		}
		fmt.Printf("%s: %.2fx vs baseline (>= %.2fx required)\n", name, got, factor)
	}
	for name, budget := range maxNs {
		b, ok := current[name]
		if !ok {
			return fmt.Errorf("%s: -max-ns %s: no such benchmark", path, name)
		}
		if b.NsPerOp <= 0 {
			return fmt.Errorf("%s: -max-ns %s: entry has no timing data", path, name)
		}
		if b.NsPerOp > budget {
			return fmt.Errorf("%s: %s runs at %.4g ns/op, over the %.4g ns/op budget",
				path, name, b.NsPerOp, budget)
		}
		fmt.Printf("%s: %.4g ns/op (<= %.4g budget)\n", name, b.NsPerOp, budget)
	}
	for name, budget := range maxAllocs {
		b, ok := current[name]
		if !ok {
			return fmt.Errorf("%s: -max-allocs %s: no such benchmark", path, name)
		}
		if b.AllocsPerOp > budget {
			return fmt.Errorf("%s: %s allocates %g allocs/op, over the %g allocs/op budget",
				path, name, b.AllocsPerOp, budget)
		}
		fmt.Printf("%s: %g allocs/op (<= %g budget)\n", name, b.AllocsPerOp, budget)
	}
	for name, floor := range minOps {
		b, ok := current[name]
		if !ok {
			return fmt.Errorf("%s: -min-ops %s: no such benchmark", path, name)
		}
		if b.OpsPerSec < floor {
			return fmt.Errorf("%s: %s runs at %.4g ops/sec, under the %.4g ops/sec floor",
				path, name, b.OpsPerSec, floor)
		}
		fmt.Printf("%s: %.4g ops/sec (>= %.4g floor)\n", name, b.OpsPerSec, floor)
	}
	for _, p := range pairSpeedups {
		base, ok := current[p.a]
		if !ok {
			return fmt.Errorf("%s: -min-pair-speedup %s: no such benchmark", path, p.a)
		}
		fast, ok := current[p.b]
		if !ok {
			return fmt.Errorf("%s: -min-pair-speedup %s: no such benchmark", path, p.b)
		}
		if base.NsPerOp <= 0 || fast.NsPerOp <= 0 {
			return fmt.Errorf("%s: -min-pair-speedup %s:%s: entry has no timing data", path, p.a, p.b)
		}
		got := base.NsPerOp / fast.NsPerOp
		if got < p.factor {
			return fmt.Errorf("%s: %s is %.2fx faster than %s (%.4g ns/op vs %.4g ns/op), want >= %.2fx",
				path, p.b, got, p.a, fast.NsPerOp, base.NsPerOp, p.factor)
		}
		fmt.Printf("%s: %.2fx faster than %s (>= %.2fx required)\n", p.b, got, p.a, p.factor)
	}
	for _, p := range pairRatios {
		a, ok := current[p.a]
		if !ok {
			return fmt.Errorf("%s: -max-pair-ratio %s: no such benchmark", path, p.a)
		}
		b, ok := current[p.b]
		if !ok {
			return fmt.Errorf("%s: -max-pair-ratio %s: no such benchmark", path, p.b)
		}
		if a.NsPerOp <= 0 || b.NsPerOp <= 0 {
			return fmt.Errorf("%s: -max-pair-ratio %s:%s: entry has no timing data", path, p.a, p.b)
		}
		got := b.NsPerOp / a.NsPerOp
		if got > p.factor {
			return fmt.Errorf("%s: %s runs at %.2fx of %s (%.4g ns/op vs %.4g ns/op), over the %.2fx bound",
				path, p.b, got, p.a, b.NsPerOp, a.NsPerOp, p.factor)
		}
		fmt.Printf("%s: %.2fx of %s (<= %.2fx bound)\n", p.b, got, p.a, p.factor)
	}
	return nil
}

// delta formats the relative change from old to new, negative = faster
// or fewer.
func delta(old, new float64) string {
	if old == 0 {
		if new == 0 {
			return "±0%"
		}
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", (new-old)/old*100)
}
