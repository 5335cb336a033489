package main

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lawgate/internal/server"
)

// setupLaunches is how many times a serving run starts lawgated; setup_s
// is the median. The middle launch serves the load; the others start
// and drain lawgated, half before the load and half after it, so the
// samples span the run.
const setupLaunches = 9

// servedRun is what one end-to-end serving run observed.
type servedRun struct {
	setup []float64 // seconds, one per launch
	load  *loadResult
	rssMB float64
	// before and after are GET /v1/tenants/default around the load.
	before, after server.TenantView
	failed        int
	problems      []string
}

func (r *servedRun) fail(format string, args ...any) {
	r.failed++
	if len(r.problems) < 10 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// loadResult is one load phase's outcome.
type loadResult struct {
	// lat holds one latency (ms) per ruling request of the timed phase,
	// +Inf when it failed.
	lat          []float64
	attempted    int
	failed       int
	rulings      int // answered 200 (rulings-closed: before the oracle runs)
	timedRulings int // the same, in the timed phase only
	records      int // audit records the answered requests imply
	checkpoints  [][]byte
	answers      []answer // rulings awaiting the oracle
	elapsed      time.Duration
	// serverCPU is the CPU time lawgated used in the timed phase.
	serverCPU    time.Duration
	firstProblem string
	// rssMB is lawgated's peak RSS sampled during the load (0: not
	// sampled).
	rssMB float64
	// broken reports that the last request failed in transport, after
	// which the connection is unusable.
	broken bool
}

// answer is a served ruling kept for checking after the load.
type answer struct {
	i    int    // stream index
	hash uint64 // fnv-1a of the response body
}

func (r *loadResult) problem(format string, args ...any) {
	r.failed++
	if r.firstProblem == "" {
		r.firstProblem = fmt.Sprintf(format, args...)
	}
}

func (r *loadResult) merge(o *loadResult, timed bool) {
	r.lat = append(r.lat, o.lat...)
	r.attempted += o.attempted
	r.failed += o.failed
	r.rulings += o.rulings
	if timed {
		r.timedRulings += o.rulings
	}
	r.records += o.records
	r.rssMB = max(r.rssMB, o.rssMB)
	r.checkpoints = append(r.checkpoints, o.checkpoints...)
	r.answers = append(r.answers, o.answers...)
	if r.firstProblem == "" {
		r.firstProblem = o.firstProblem
	}
}

// exchange sends stream request i on c and folds the outcome into part.
// It reports whether the request was a ruling request (its latency
// counts) and whether it succeeded.
type exchange func(c *client, i int, part *loadResult) (ruling, ok bool)

// closedLoop warms lawgated with stream requests [0, warmup) on one
// connection, then runs closed-loop clients for dur, each sending the
// request order picks as soon as its previous answer came back. Latency
// is timed per request from send to the full response.
func closedLoop(d *daemon, clients, warmup int, dur time.Duration, order func(w, k int) int, ex exchange) (*loadResult, error) {
	cs, err := dialAll(d.addr, clients)
	if err != nil {
		return nil, err
	}
	total, warm := &loadResult{}, &loadResult{}
	for i := 0; i < warmup; i++ {
		ex(cs[0], i, warm)
	}
	total.merge(warm, false)
	parts := make([]*loadResult, clients)
	var wg sync.WaitGroup
	cpu0, err := d.cpu()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	stop := start.Add(dur)
	for w, c := range cs {
		part := &loadResult{}
		parts[w] = part
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer c.close()
			for k := 0; time.Now().Before(stop); k++ {
				sent := time.Now()
				ruling, ok := ex(c, order(w, k), part)
				took := ms(time.Since(sent))
				switch {
				case !ok:
					part.lat = append(part.lat, math.Inf(1))
				case ruling:
					part.lat = append(part.lat, took)
				}
				if part.broken {
					return
				}
			}
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start)
	cpu1, err := d.cpu()
	if err != nil {
		return nil, err
	}
	total.serverCPU = cpu1 - cpu0
	for _, p := range parts {
		total.merge(p, true)
	}
	return total, nil
}

func dialAll(addr string, n int) ([]*client, error) {
	var cs []*client
	for i := 0; i < n; i++ {
		c, err := dial(addr)
		if err != nil {
			for _, c := range cs {
				c.close()
			}
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// checkpointPath is the auditor's read against the anchor.
func checkpointPath(a anchor) string {
	return "/v1/ledger/checkpoint?since=" + strconv.FormatUint(a.size, 10)
}

// rssMark is the stream position at which rulings-closed samples
// lawgated's peak RSS, and batchRSSMark the number of batches after
// which batch-closed does. Every served request adds an in-memory audit
// record, so the peak at the end of a timed run would follow the
// throughput; the peak after a fixed amount of work does not.
const (
	rssMark      = rulingsWarmup + 50_000
	batchRSSMark = batchPoolSize + 5_000
)

// rulingsExchange serves rulings-closed: single evaluations, whose
// answers the oracle checks after the load, and auditor reads, whose
// proofs are checked after the load.
func rulingsExchange(in *rulingsInput, a anchor, d *daemon) exchange {
	path := checkpointPath(a)
	return func(c *client, i int, part *loadResult) (bool, bool) {
		if i == rssMark {
			part.rssMB, _ = d.peakRSSMB() // 0, the end-of-run peak, stands in on error
		}
		cs := in.cases[i%len(in.cases)]
		part.attempted++
		var (
			status int
			body   []byte
			err    error
		)
		if cs.checkpoint() {
			status, body, err = c.do("GET", path, nil)
		} else {
			c.body = in.appendBody(c.body[:0], cs)
			status, body, err = c.do("POST", "/v1/evaluate", c.body)
		}
		part.broken = err != nil
		switch {
		case err != nil:
			part.problem("request %d: %v", i, err)
			return !cs.checkpoint(), false
		case status != http.StatusOK:
			part.problem("request %d: status %d: %.200s", i, status, body)
			return !cs.checkpoint(), false
		case cs.checkpoint():
			part.checkpoints = append(part.checkpoints, append([]byte(nil), body...))
			return false, true
		}
		part.answers = append(part.answers, answer{i: i, hash: fnv64(body)})
		part.rulings++
		part.records++
		return true, true
	}
}

// batchExchange serves batch-closed: every answer is compared with the
// pool's reference response as it arrives.
func batchExchange(in *batchInput, d *daemon) exchange {
	var sent atomic.Int64
	return func(c *client, i int, part *loadResult) (bool, bool) {
		if sent.Add(1) == batchRSSMark {
			part.rssMB, _ = d.peakRSSMB() // 0, the end-of-run peak, stands in on error
		}
		q := &in.pool[i%len(in.pool)]
		part.attempted++
		status, body, err := c.do("POST", "/v1/evaluate/batch", q.body)
		part.broken = err != nil
		switch {
		case err != nil:
			part.problem("batch %d: %v", i, err)
			return true, false
		case status != http.StatusOK:
			part.problem("batch %d: status %d: %.200s", i, status, body)
			return true, false
		case !bytes.Equal(body, q.want):
			part.problem("batch %d: rulings differ from the reference:\n got %.300s\nwant %.300s", i, body, q.want)
			return true, false
		}
		part.rulings += q.actions
		part.records++
		return true, true
	}
}

// checkAnswers runs the ruling oracle over every served ruling: each is
// compared with a reference legal.NewEngine() evaluation of the same
// action (and, through the oracle, scene actions with the paper's
// Table 1 answer).
func checkAnswers(in *rulingsInput, answers []answer) (wrong int, first string, err error) {
	o := newOracle()
	want := map[rulingCase]uint64{}
	for _, a := range answers {
		cs := in.cases[a.i%len(in.cases)]
		h, ok := want[cs]
		if !ok {
			resp, err := o.evaluateResponse(in.action(o, cs), int(cs.scene))
			if err != nil {
				return 0, "", err
			}
			h = fnv64(resp)
			want[cs] = h
		}
		if h != a.hash {
			wrong++
			if first == "" {
				first = fmt.Sprintf("request %d (%s, scene %d): ruling differs from the reference",
					a.i, appendName(nil, cs.name), cs.scene)
			}
		}
	}
	return wrong, first, nil
}

// fnv64 is 64-bit FNV-1a.
func fnv64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// loadFunc drives a workload's load against a running lawgated.
type loadFunc func(d *daemon, a anchor) (*loadResult, error)

// rulingsLoad is rulings-closed's load: a shared cursor walks the
// stream, so the requests sent are a prefix of it whatever the speed.
func rulingsLoad(in *rulingsInput, clients int, dur time.Duration) loadFunc {
	return func(d *daemon, a anchor) (*loadResult, error) {
		var next atomic.Int64
		next.Store(rulingsWarmup)
		order := func(int, int) int { return int(next.Add(1)) - 1 }
		res, err := closedLoop(d, clients, rulingsWarmup, dur, order, rulingsExchange(in, a, d))
		if err != nil {
			return nil, err
		}
		wrong, first, err := checkAnswers(in, res.answers)
		if err != nil {
			return nil, err
		}
		if wrong > 0 {
			res.failed += wrong
			res.timedRulings -= wrong
			if res.firstProblem == "" {
				res.firstProblem = first
			}
		}
		return res, nil
	}
}

// batchLoad is batch-closed's load: one untimed pass over the pool, then
// each client cycles through it from its own offset.
func batchLoad(in *batchInput, clients int, dur time.Duration) loadFunc {
	return func(d *daemon, _ anchor) (*loadResult, error) {
		n := len(in.pool)
		order := func(w, k int) int { return (w*n/clients + k) % n }
		return closedLoop(d, clients, n, dur, order, batchExchange(in, d))
	}
}

// serveAndMeasure runs the end-to-end part shared by both serving
// workloads: set-up timing, audit anchoring, the load, the audit-trail
// and drain checks, and peak RSS.
func serveAndMeasure(bin, dir string, load loadFunc) (*servedRun, error) {
	run := &servedRun{}
	// launchAndStop times one set-up that does not serve the load.
	launchAndStop := func(n int) error {
		d, took, err := launch(bin, dir, n)
		if err != nil {
			return err
		}
		run.setup = append(run.setup, took.Seconds())
		_, err = d.stop()
		return err
	}
	for i := 0; i < setupLaunches/2; i++ {
		if err := launchAndStop(i); err != nil {
			return nil, err
		}
	}
	d, took, err := launch(bin, dir, setupLaunches/2)
	if err != nil {
		return nil, err
	}
	run.setup = append(run.setup, took.Seconds())
	defer d.kill()

	c, err := dial(d.addr)
	if err != nil {
		return nil, err
	}
	if err := c.getJSON("/v1/tenants/"+servedTenant, &run.before); err != nil {
		c.close()
		return nil, err
	}
	var cp server.CheckpointResponse
	err = c.getJSON("/v1/ledger/checkpoint", &cp)
	c.close()
	if err != nil {
		return nil, err
	}
	if run.before.Revision != servedRevision {
		return nil, fmt.Errorf("default tenant at revision %d, want %d", run.before.Revision, servedRevision)
	}
	anc, err := parseAnchor(cp)
	if err != nil {
		return nil, err
	}
	if anc.size != uint64(run.before.LedgerSize) {
		run.fail("anchor size %d != ledgerSize %d", anc.size, run.before.LedgerSize)
	}

	res, err := load(d, anc)
	if err != nil {
		return nil, err
	}
	run.load = res
	if res.failed > 0 {
		run.failed += res.failed
		run.problems = append(run.problems, fmt.Sprintf("%d of %d requests failed; first: %s",
			res.failed, res.attempted, res.firstProblem))
	}
	for _, body := range res.checkpoints {
		if _, err := verifyExtends(body, anc); err != nil {
			run.fail("auditor read: %v", err)
		}
	}

	// One final proof after the load, then the exact record count.
	if c, err = dial(d.addr); err != nil {
		return nil, err
	}
	defer c.close()
	status, body, err := c.do("GET", checkpointPath(anc), nil)
	switch {
	case err != nil:
		run.fail("final checkpoint: %v", err)
	case status != http.StatusOK:
		run.fail("final checkpoint: status %d", status)
	default:
		size, err := verifyExtends(body, anc)
		if err != nil {
			run.fail("final proof: %v", err)
		} else if want := anc.size + uint64(res.records); size != want {
			run.fail("ledger grew to %d records, want %d (%d before + %d served)", size, want, anc.size, res.records)
		}
	}
	if err := c.getJSON("/v1/tenants/"+servedTenant, &run.after); err != nil {
		return nil, err
	}
	if want := run.before.LedgerSize + res.records; run.after.LedgerSize != want {
		run.fail("ledgerSize %d, want %d", run.after.LedgerSize, want)
	}
	if run.rssMB = res.rssMB; run.rssMB == 0 {
		if run.rssMB, err = d.peakRSSMB(); err != nil {
			return nil, err
		}
	}
	c.close()
	sealed, err := d.stop()
	if err != nil {
		run.fail("drain: %v", err)
	} else if sealed != uint64(run.after.LedgerSize) {
		run.fail("drain sealed a checkpoint of size %d, ledger had %d", sealed, run.after.LedgerSize)
	}
	for i := setupLaunches/2 + 1; i < setupLaunches; i++ {
		if err := launchAndStop(i); err != nil {
			return nil, err
		}
	}
	return run, nil
}
