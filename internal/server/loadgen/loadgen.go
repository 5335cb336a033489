// Package loadgen is lawgated's Go-native load and chaos harness. It
// drives a running server at high concurrency through a deliberately
// hostile schedule — request bursts, malformed JSON, oversized bodies,
// slow-loris connections, zero-deadline requests, poisoned (panicking)
// evaluations, and mid-run doctrine hot swaps — and accounts for every
// request: each must end in an intentional HTTP status. A request that
// dies without one (connection reset, unexpected EOF, client timeout)
// is counted as unaccounted, and a robust server produces zero.
package loadgen

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lawgate/internal/legal"
	"lawgate/internal/server"
)

// ChaosPanicName is the action name the bench server's EvalHook treats
// as poison: evaluating it panics inside the handler, exercising the
// recovery middleware under load.
const ChaosPanicName = "chaos-panic"

// Operation kinds in the traffic schedule.
const (
	opEvaluate = iota
	opBatch
	opAdvise
	opCheckpoint
	opMalformed
	opOversized
	opZeroDeadline
	opUnknownTenant
	opPoison
)

// maxDrops caps the transport errors a Result keeps.
const maxDrops = 5

// opNames labels each operation kind in a Result's Drops.
var opNames = [...]string{
	opEvaluate:      "evaluate",
	opBatch:         "batch",
	opAdvise:        "advise",
	opCheckpoint:    "checkpoint",
	opMalformed:     "malformed",
	opOversized:     "oversized",
	opZeroDeadline:  "zero-deadline",
	opUnknownTenant: "unknown-tenant",
	opPoison:        "poison",
}

// errRunOver marks a slow-loris dial the run's own deadline cut short.
var errRunOver = errors.New("loadgen: run over")

// Config shapes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Workers is the number of concurrent request loops.
	Workers int
	// Duration bounds the run.
	Duration time.Duration
	// Chaos mixes hostile traffic (malformed, oversized, zero-deadline,
	// poisoned) into the schedule and adds slow-loris connections.
	Chaos bool
	// SlowLoris is the number of concurrent slow-loris connections to
	// hold open when Chaos is set (default 2).
	SlowLoris int
	// SwapEvery hot-swaps the default tenant's doctrine table at this
	// period (0 disables swaps).
	SwapEvery time.Duration
	// OversizeBytes sizes the oversized-body probe; it must exceed the
	// server's max body (default 2 MiB against the 1 MiB default).
	OversizeBytes int
}

// Result is the accounting of one run.
type Result struct {
	// Requests is every request the harness issued, including chaos.
	Requests uint64 `json:"requests"`
	// Statuses histograms the HTTP statuses received.
	Statuses map[int]uint64 `json:"statuses"`
	// Unaccounted counts requests that ended without any HTTP status —
	// the number a robust server keeps at zero.
	Unaccounted uint64 `json:"unaccounted"`
	// Drops holds the first maxDrops errors behind Unaccounted, each
	// naming the request that ended without a status.
	Drops []string `json:"drops,omitempty"`
	// Rulings counts 200s on /v1/evaluate (the latency population).
	Rulings uint64 `json:"rulings"`
	// Swaps counts completed mid-run doctrine hot swaps.
	Swaps uint64 `json:"swaps"`
	// Elapsed is the wall-clock run time.
	Elapsed time.Duration `json:"elapsed_ns"`
	// P50 and P99 are evaluate-latency percentiles.
	P50 time.Duration `json:"p50_ns"`
	P99 time.Duration `json:"p99_ns"`
	// RulingsPerSec is Rulings / Elapsed.
	RulingsPerSec float64 `json:"rulings_per_sec"`
	// AllocsPerRequest is the process-wide heap-allocation delta
	// (runtime.MemStats.Mallocs) across the run divided by Requests.
	// Against lawgated's in-process bench server it counts client and
	// server allocations together — the number the zero-alloc serving
	// path is budgeted against; against a remote server it counts only
	// the harness side.
	AllocsPerRequest float64 `json:"allocs_per_request"`
}

// DeliberateStatuses is the set of statuses the server is allowed to
// answer under chaos: success, the deliberate 4xx family, recovered
// panics, and deadline expiry.
var DeliberateStatuses = map[int]bool{
	http.StatusOK:                    true,
	http.StatusBadRequest:            true,
	http.StatusNotFound:              true,
	http.StatusMethodNotAllowed:      true,
	http.StatusRequestTimeout:        true,
	http.StatusRequestEntityTooLarge: true,
	http.StatusUnprocessableEntity:   true,
	http.StatusTooManyRequests:       true,
	http.StatusInternalServerError:   true,
	http.StatusGatewayTimeout:        true,
	http.StatusServiceUnavailable:    true,
}

// Check returns an error describing any accounting violation: an
// unaccounted request or a status outside DeliberateStatuses.
func (r *Result) Check() error {
	if r.Unaccounted > 0 {
		return fmt.Errorf("loadgen: %d of %d requests ended without a status; first: %s",
			r.Unaccounted, r.Requests, strings.Join(r.Drops, "; "))
	}
	for status, n := range r.Statuses {
		if !DeliberateStatuses[status] {
			return fmt.Errorf("loadgen: %d responses with non-deliberate status %d", n, status)
		}
	}
	if r.Rulings == 0 {
		return fmt.Errorf("loadgen: no rulings served in %d requests", r.Requests)
	}
	return nil
}

// evaluateBody is the steady-state request: a Title III wiretap that
// always evaluates cleanly.
func evaluateBody(name string) []byte {
	return mustJSON(legal.Action{
		Name:   name,
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingRealTime,
		Data:   legal.DataContent,
		Source: legal.SourceThirdPartyNetwork,
	})
}

// Run executes the schedule and returns the accounting. The error is
// only for harness-level failures (bad config); server misbehavior is
// reported through the Result.
func Run(cfg Config) (*Result, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = time.Second
	}
	if cfg.SlowLoris <= 0 {
		cfg.SlowLoris = 2
	}
	if cfg.OversizeBytes <= 0 {
		cfg.OversizeBytes = 2 << 20
	}
	u, err := url.Parse(cfg.BaseURL)
	if err != nil {
		return nil, fmt.Errorf("loadgen: %w", err)
	}

	client := &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Workers * 2,
			MaxIdleConnsPerHost: cfg.Workers * 2,
		},
		Timeout: 30 * time.Second,
	}
	defer client.CloseIdleConnections()

	ctx, cancel := context.WithTimeout(context.Background(), cfg.Duration)
	defer cancel()

	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		statuses  = map[int]uint64{}
		drops     []string
		latencies = make([][]int64, cfg.Workers)
		requests  atomic.Uint64
		unacct    atomic.Uint64
		rulings   atomic.Uint64
		swaps     atomic.Uint64
	)
	record := func(status int) {
		mu.Lock()
		statuses[status]++
		mu.Unlock()
	}
	drop := func(what string, err error) {
		unacct.Add(1)
		mu.Lock()
		if len(drops) < maxDrops {
			drops = append(drops, what+": "+err.Error())
		}
		mu.Unlock()
	}

	// One 25-op cycle of the traffic mix, chaos interleaved throughout
	// so every category lands within any 25 consecutive iterations —
	// even short or race-detector-slowed runs exercise the whole
	// hostile repertoire. Without Chaos the hostile slots fall back to
	// steady evaluates.
	schedule := [25]int{
		opEvaluate, opEvaluate, opMalformed, opEvaluate, opEvaluate,
		opBatch, opEvaluate, opOversized, opEvaluate, opEvaluate,
		opZeroDeadline, opEvaluate, opEvaluate, opAdvise, opEvaluate,
		opUnknownTenant, opEvaluate, opEvaluate, opCheckpoint, opEvaluate,
		opPoison, opEvaluate, opEvaluate, opEvaluate, opEvaluate,
	}

	steady := evaluateBody("load-wiretap")
	batch := func() []byte {
		var base legal.Action
		if err := json.Unmarshal(steady, &base); err != nil {
			// The steady body is marshaled from a literal above; failing
			// to round-trip it means the harness itself is broken.
			panic(fmt.Sprintf("loadgen: steady body does not round-trip: %v", err))
		}
		actions := make([]legal.Action, 8)
		for i := range actions {
			actions[i] = base
			actions[i].Name = fmt.Sprintf("load-batch-%d", i)
		}
		return mustJSON(actions)
	}()
	poison := evaluateBody(ChaosPanicName)
	oversized := []byte(`{"Name": "` + strings.Repeat("x", cfg.OversizeBytes) + `"}`)

	var msBefore runtime.MemStats
	runtime.ReadMemStats(&msBefore)
	start := time.Now()
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ctx.Err() == nil; i++ {
				op := schedule[i%len(schedule)]
				if !cfg.Chaos && op != opBatch && op != opAdvise && op != opCheckpoint {
					op = opEvaluate
				}
				requests.Add(1)
				var (
					status int
					err    error
					t0     time.Time
				)
				switch op {
				case opEvaluate: // valid evaluate, latency recorded
					t0 = time.Now()
					status, err = post(client, cfg.BaseURL+"/v1/evaluate", steady, nil)
				case opBatch:
					status, err = post(client, cfg.BaseURL+"/v1/evaluate/batch", batch, nil)
				case opAdvise:
					status, err = post(client, cfg.BaseURL+"/v1/advise", steady, nil)
				case opCheckpoint:
					status, err = get(client, cfg.BaseURL+"/v1/ledger/checkpoint")
				case opMalformed: // -> 400
					status, err = post(client, cfg.BaseURL+"/v1/evaluate",
						[]byte(`{"Name": "broken`), nil)
				case opOversized: // -> 413
					status, err = post(client, cfg.BaseURL+"/v1/evaluate", oversized, nil)
				case opZeroDeadline: // -> 504
					status, err = post(client, cfg.BaseURL+"/v1/evaluate", steady,
						map[string]string{"X-Lawgate-Deadline-Ms": "0"})
				case opUnknownTenant: // -> 404
					status, err = post(client, cfg.BaseURL+"/v1/evaluate?tenant=no-such", steady, nil)
				case opPoison: // -> recovered 500
					status, err = post(client, cfg.BaseURL+"/v1/evaluate", poison, nil)
				}
				if err != nil {
					drop(opNames[op], err)
					continue
				}
				record(status)
				if op == opEvaluate && status == http.StatusOK {
					rulings.Add(1)
					latencies[w] = append(latencies[w], time.Since(t0).Nanoseconds())
				}
			}
		}(w)
	}

	if cfg.SwapEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cfgs := [][]byte{
				mustJSON(server.RuleConfig{Container: "per-file"}),
				mustJSON(server.RuleConfig{Container: "single"}),
			}
			tick := time.NewTicker(cfg.SwapEvery)
			defer tick.Stop()
			for i := 0; ; i++ {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				requests.Add(1)
				status, err := put(client, cfg.BaseURL+"/v1/tenants/default/rules", cfgs[i%2])
				if err != nil {
					drop("swap", err)
					continue
				}
				record(status)
				if status == http.StatusOK {
					swaps.Add(1)
				}
			}
		}()
	}

	if cfg.Chaos {
		for i := 0; i < cfg.SlowLoris; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ctx.Err() == nil {
					status, err := slowLoris(ctx, u.Host)
					if errors.Is(err, errRunOver) {
						return
					}
					requests.Add(1)
					if err != nil {
						drop("slow-loris", err)
						continue
					}
					record(status)
				}
			}()
		}
	}

	wg.Wait()
	elapsed := time.Since(start)
	var msAfter runtime.MemStats
	runtime.ReadMemStats(&msAfter)

	var all []int64
	for _, l := range latencies {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res := &Result{
		Requests:    requests.Load(),
		Statuses:    statuses,
		Unaccounted: unacct.Load(),
		Drops:       drops,
		Rulings:     rulings.Load(),
		Swaps:       swaps.Load(),
		Elapsed:     elapsed,
	}
	if len(all) > 0 {
		res.P50 = time.Duration(all[len(all)/2])
		res.P99 = time.Duration(all[len(all)*99/100])
	}
	if elapsed > 0 {
		res.RulingsPerSec = float64(res.Rulings) / elapsed.Seconds()
	}
	if res.Requests > 0 {
		res.AllocsPerRequest = float64(msAfter.Mallocs-msBefore.Mallocs) / float64(res.Requests)
	}
	return res, nil
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// post issues the request and reports the status, or the error that
// ended the request without one.
func post(client *http.Client, url string, body []byte, headers map[string]string) (int, error) {
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	return do(client, req)
}

func put(client *http.Client, url string, body []byte) (int, error) {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	return do(client, req)
}

func get(client *http.Client, url string) (int, error) {
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		return 0, err
	}
	return do(client, req)
}

func do(client *http.Client, req *http.Request) (int, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode, nil
}

// slowLoris opens a raw TCP connection, sends headers promising a body
// it never delivers, and waits for the server's verdict. A robust
// server answers 408 within its body-read timeout instead of leaving
// the socket open.
//
// A dial the run's deadline cuts short returns errRunOver: the harness
// ended it before any request reached the server, so it is not a drop.
// The clock decides, not ctx.Err(): the dialer times out on the
// context's deadline before the context itself reports done.
func slowLoris(ctx context.Context, host string) (int, error) {
	d := net.Dialer{Timeout: 5 * time.Second}
	conn, err := d.DialContext(ctx, "tcp", host)
	if err != nil {
		if dl, ok := ctx.Deadline(); ctx.Err() != nil || ok && !time.Now().Before(dl) {
			return 0, errRunOver
		}
		return 0, err
	}
	defer conn.Close()
	_, err = fmt.Fprintf(conn, "POST /v1/evaluate HTTP/1.1\r\nHost: %s\r\n"+
		"Content-Type: application/json\r\nContent-Length: 4096\r\n\r\n{\"Name\":", host)
	if err != nil {
		return 0, err
	}
	conn.SetReadDeadline(time.Now().Add(30 * time.Second))
	buf := make([]byte, 64)
	n, err := conn.Read(buf)
	if err != nil {
		return 0, err
	}
	var status int
	if _, err := fmt.Sscanf(string(buf[:n]), "HTTP/1.1 %d", &status); err != nil {
		return 0, fmt.Errorf("status line %q: %w", buf[:n], err)
	}
	return status, nil
}
