package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no
// samples). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads VmHWM, the peak resident set, of a process ("self" or
// a pid) from /proc.
func peakRSSMB(pid string) (float64, error) { return procStatusMB(pid, "VmHWM") }

// procStatusMB reads a kB field of /proc/<pid>/status, in MB.
func procStatusMB(pid, field string) (float64, error) {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing %s %q: %w", field, rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}

// resetPeakRSS restarts a process's VmHWM from its current RSS.
func resetPeakRSS(pid string) error {
	return os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
}

// Span names, one per layer boundary the traced runs cross.
const (
	spRequest = iota
	spHandler
	spDecode
	spEvaluate
	spEvaluateBatch
	spAppendBatch
	spEncode
	spCheckpoint
	spPass
	spSweep
	spTrial
)

var spanNames = [...]string{
	spRequest:       "request",
	spHandler:       "server.handler",
	spDecode:        "wire.decode",
	spEvaluate:      "legal.evaluate",
	spEvaluateBatch: "legal.evaluate_batch",
	spAppendBatch:   "ledger.append_batch",
	spEncode:        "wire.encode",
	spCheckpoint:    "ledger.checkpoint",
	spPass:          "experiment.pass",
	spSweep:         "experiment.sweep",
	spTrial:         "trial",
}

// span is one timed call into a layer. Spans of one request (or one
// trial) share req; parent indexes the span that caused it (-1 for a
// root). Times are nanoseconds since the tracer's epoch.
type span struct {
	name       int
	label      string
	req        int
	parent     int
	start, end int64
}

func (s span) dur() float64 { return float64(s.end - s.start) }

// tracer keeps spans in memory; write dumps them when the run ends.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a span and returns its index.
func (t *tracer) begin(name, req, parent int, label string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, label: label, req: req, parent: parent, start: t.now()})
	return len(t.spans) - 1
}

func (t *tracer) end(i int) {
	t.mu.Lock()
	t.spans[i].end = t.now()
	t.mu.Unlock()
}

// durations returns the durations (ns) of every span named name.
func (t *tracer) durations(name int) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// write dumps the spans as CSV: name,label,req,parent,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "span,name,label,req,parent,start_ns,end_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%s,%s,%d,%d,%d,%d\n", i, spanNames[s.name], s.label, s.req, s.parent, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
