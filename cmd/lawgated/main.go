// Command lawgated serves the legal engine as a hardened multi-tenant
// HTTP/JSON ruling service.
//
// Serve mode (the default) binds -addr, optionally records the bound
// address in -port-file (useful with ":0"), and runs until SIGTERM or
// SIGINT, then drains gracefully: readiness flips to 503, in-flight
// requests finish, every tenant ledger seals a final checkpoint, and
// the process exits 0.
//
// Probe mode (-probe URL) runs a conformance pass against a live
// server: every endpoint, the deliberate 4xx paths (malformed JSON,
// oversized body, unknown tenant, invalid action), a rules hot swap,
// and a client-side consistency-proof verification of the ledger
// checkpoint endpoint. It exits nonzero on the first violation.
//
// Bench mode (-bench) starts an in-process server, drives it through
// the loadgen chaos schedule (bursts, malformed, oversized, slow-loris,
// poisoned evaluations, mid-run hot swaps), asserts that every request
// ended in a deliberate status with no panic crash and no goroutine
// leak, and writes a lawgate-bench/v1 JSON report with the observed
// latency percentiles and throughput next to a direct in-process
// Engine.Evaluate baseline measured in the same run.
package main

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
	"lawgate/internal/server"
	"lawgate/internal/server/loadgen"
)

func main() {
	var (
		addr       = flag.String("addr", "127.0.0.1:8080", "listen address (use :0 for an ephemeral port)")
		portFile   = flag.String("port-file", "", "write the bound host:port to this file once listening")
		tenants    = flag.String("tenants", "default", "comma-separated tenant IDs to provision")
		slots      = flag.Int("slots", 0, "concurrent evaluation slots (0 = one per CPU)")
		maxWait    = flag.Int("max-wait", server.DefaultMaxWait, "queued requests before shedding")
		rate       = flag.Float64("rate", 0, "per-tenant rulings/sec rate limit (0 = unlimited)")
		burst      = flag.Float64("burst", 0, "per-tenant rate-limit burst")
		deadline   = flag.Duration("deadline", server.DefaultDeadline, "per-request deadline")
		bodyTime   = flag.Duration("body-timeout", server.DefaultBodyReadTimeout, "request body delivery timeout")
		maxBody    = flag.Int64("max-body", server.DefaultMaxBody, "request body byte cap")
		drainDelay = flag.Duration("drain-delay", 0, "pre-drain window where readiness is 503 but the listener still serves")

		probeURL = flag.String("probe", "", "run the conformance probe against this base URL and exit")

		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (separate listener, never the serving mux)")

		bench      = flag.Bool("bench", false, "run the chaos bench against an in-process server and exit")
		benchDur   = flag.Duration("bench-duration", 2*time.Second, "chaos bench duration")
		benchWorke = flag.Int("bench-workers", 16, "chaos bench worker count")
		out        = flag.String("o", "", "bench report output file (default stdout)")
	)
	flag.Parse()

	if *pprofAddr != "" {
		paddr, err := startPprof(*pprofAddr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "lawgated: pprof:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "lawgated: pprof on http://%s/debug/pprof/\n", paddr)
	}

	var err error
	switch {
	case *probeURL != "":
		err = probe(*probeURL)
	case *bench:
		err = runBench(*benchDur, *benchWorke, *out)
	default:
		err = serve(serveConfig{
			addr: *addr, portFile: *portFile, tenants: splitTenants(*tenants),
			slots: *slots, maxWait: *maxWait, rate: *rate, burst: *burst,
			deadline: *deadline, bodyTimeout: *bodyTime, maxBody: *maxBody,
			drainDelay: *drainDelay,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "lawgated:", err)
		os.Exit(1)
	}
}

// startPprof serves the pprof endpoints on their own listener and mux.
// Profiling stays opt-in and off the serving mux: the hardened ruling
// handler never exposes debug surfaces, and profile scrapes cannot
// consume evaluation slots.
func startPprof(addr string) (net.Addr, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() {
		if err := http.Serve(ln, mux); err != nil {
			fmt.Fprintln(os.Stderr, "lawgated: pprof listener:", err)
		}
	}()
	return ln.Addr(), nil
}

func splitTenants(s string) []string {
	var out []string
	for _, id := range strings.Split(s, ",") {
		if id = strings.TrimSpace(id); id != "" {
			out = append(out, id)
		}
	}
	return out
}

type serveConfig struct {
	addr, portFile string
	tenants        []string
	slots, maxWait int
	rate, burst    float64
	deadline       time.Duration
	bodyTimeout    time.Duration
	maxBody        int64
	drainDelay     time.Duration
}

func serve(cfg serveConfig) error {
	s, err := server.New(
		server.WithTenants(cfg.tenants...),
		server.WithAdmission(cfg.slots, cfg.maxWait),
		server.WithRateLimit(cfg.rate, cfg.burst),
		server.WithDeadline(cfg.deadline),
		server.WithBodyReadTimeout(cfg.bodyTimeout),
		server.WithMaxBody(cfg.maxBody),
		server.WithDrainDelay(cfg.drainDelay),
	)
	if err != nil {
		return err
	}
	// The handler goes in before Start: once the port file announces the
	// server, a SIGTERM must drain it, never kill it.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	defer signal.Stop(sig)
	addr, err := s.Start(cfg.addr)
	if err != nil {
		return err
	}
	if cfg.portFile != "" {
		if err := os.WriteFile(cfg.portFile, []byte(addr.String()), 0o644); err != nil {
			return fmt.Errorf("writing port file: %w", err)
		}
	}
	fmt.Fprintf(os.Stderr, "lawgated: serving %d tenant(s) on %s\n", len(cfg.tenants), addr)

	got := <-sig
	fmt.Fprintf(os.Stderr, "lawgated: %s received, draining\n", got)

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return err
	}
	for _, cp := range s.FinalCheckpoints() {
		fmt.Fprintf(os.Stderr, "lawgated: tenant %s sealed final checkpoint size=%d root=%s\n",
			cp.Tenant, cp.Checkpoint.Size, hex.EncodeToString(cp.Checkpoint.Root[:]))
	}
	st := s.Stats()
	fmt.Fprintf(os.Stderr, "lawgated: drained clean: %d requests, %d rulings, %d shed, %d panics recovered\n",
		st.Requests, st.Rulings, st.Shed, st.Panics)
	return nil
}

// probeAction is the conformance probe's standard wiretap action.
func probeAction(name string) legal.Action {
	return legal.Action{
		Name:   name,
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingRealTime,
		Data:   legal.DataContent,
		Source: legal.SourceThirdPartyNetwork,
	}
}

// probe runs the conformance pass against a live server.
func probe(base string) error {
	client := &http.Client{Timeout: 15 * time.Second}
	base = strings.TrimRight(base, "/")

	expect := func(what string, got, want int, body []byte) error {
		if got != want {
			return fmt.Errorf("probe: %s: status %d, want %d (body %s)", what, got, want, body)
		}
		fmt.Printf("probe: %-34s %d\n", what, got)
		return nil
	}

	for _, path := range []string{"/healthz", "/readyz"} {
		status, body, err := doGet(client, base+path)
		if err != nil {
			return fmt.Errorf("probe: GET %s: %w", path, err)
		}
		if err := expect("GET "+path, status, http.StatusOK, body); err != nil {
			return err
		}
	}

	// Valid evaluation.
	status, body, err := doPost(client, base+"/v1/evaluate", mustJSON(probeAction("probe-wiretap")))
	if err != nil {
		return fmt.Errorf("probe: evaluate: %w", err)
	}
	if err := expect("POST /v1/evaluate", status, http.StatusOK, body); err != nil {
		return err
	}
	var ev server.EvaluateResponse
	if err := json.Unmarshal(body, &ev); err != nil {
		return fmt.Errorf("probe: evaluate response: %w", err)
	}
	if ev.Ruling.Required == "" || !ev.Ruling.NeedsProcess {
		return fmt.Errorf("probe: wiretap ruling %+v, want process required", ev.Ruling)
	}
	// The serving hot path hand-encodes this response; the bytes on the
	// wire must be indistinguishable from the stdlib rendering of the
	// decoded struct.
	if reenc := append(mustJSON(ev), '\n'); !bytes.Equal(body, reenc) {
		return fmt.Errorf("probe: evaluate bytes diverge from canonical JSON:\n got %s\nwant %s", body, reenc)
	}
	fmt.Printf("probe: %-34s byte-identical\n", "evaluate wire encoding")

	// Deliberate 4xx paths: malformed, oversized, unknown tenant,
	// invalid action.
	if status, body, err = doPost(client, base+"/v1/evaluate", []byte(`{"Name": "broken`)); err != nil {
		return err
	}
	if err := expect("malformed JSON", status, http.StatusBadRequest, body); err != nil {
		return err
	}
	oversized := []byte(`{"Name": "` + strings.Repeat("x", 2<<20) + `"}`)
	if status, body, err = doPost(client, base+"/v1/evaluate", oversized); err != nil {
		return err
	}
	if err := expect("oversized body", status, http.StatusRequestEntityTooLarge, body); err != nil {
		return err
	}
	if status, body, err = doPost(client, base+"/v1/evaluate?tenant=no-such", mustJSON(probeAction("x"))); err != nil {
		return err
	}
	if err := expect("unknown tenant", status, http.StatusNotFound, body); err != nil {
		return err
	}
	bad := probeAction("bad")
	bad.Actor = legal.Actor(99)
	if status, body, err = doPost(client, base+"/v1/evaluate", mustJSON(bad)); err != nil {
		return err
	}
	if err := expect("invalid action", status, http.StatusUnprocessableEntity, body); err != nil {
		return err
	}

	// Batch with one poisoned slot.
	batch := []legal.Action{probeAction("probe-a"), bad, probeAction("probe-b")}
	if status, body, err = doPost(client, base+"/v1/evaluate/batch", mustJSON(batch)); err != nil {
		return err
	}
	if err := expect("POST /v1/evaluate/batch", status, http.StatusOK, body); err != nil {
		return err
	}
	var br server.BatchResponse
	if err := json.Unmarshal(body, &br); err != nil {
		return err
	}
	if len(br.Rulings) != 3 || br.Rulings[1] != nil || len(br.Errors) != 1 || br.Errors[0].Index != 1 {
		return fmt.Errorf("probe: batch partial failure mishandled: %s", body)
	}
	if reenc := append(mustJSON(br), '\n'); !bytes.Equal(body, reenc) {
		return fmt.Errorf("probe: batch bytes diverge from canonical JSON:\n got %s\nwant %s", body, reenc)
	}
	fmt.Printf("probe: %-34s byte-identical\n", "batch wire encoding")

	// Advisory.
	if status, body, err = doPost(client, base+"/v1/advise", mustJSON(probeAction("probe-advise"))); err != nil {
		return err
	}
	if err := expect("POST /v1/advise", status, http.StatusOK, body); err != nil {
		return err
	}
	var ar server.AdviseResponse
	if err := json.Unmarshal(body, &ar); err != nil {
		return err
	}
	if len(ar.Advice) == 0 {
		return fmt.Errorf("probe: no advice for a super-warrant wiretap")
	}

	// Checkpoint anchoring: take one, serve more rulings, then verify
	// client-side that the new checkpoint extends the anchor.
	anchor, err := getCheckpoint(client, base+"/v1/ledger/checkpoint")
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		if _, _, err := doPost(client, base+"/v1/evaluate", mustJSON(probeAction("probe-extend"))); err != nil {
			return err
		}
	}
	cur, err := getCheckpoint(client, fmt.Sprintf("%s/v1/ledger/checkpoint?since=%d", base, anchor.Size))
	if err != nil {
		return err
	}
	if cur.Consistency == nil {
		return fmt.Errorf("probe: checkpoint?since returned no consistency proof")
	}
	proof := ledger.ConsistencyProof{OldSize: cur.Consistency.OldSize, NewSize: cur.Consistency.NewSize}
	for _, h := range cur.Consistency.Path {
		node, err := unhex32(h)
		if err != nil {
			return fmt.Errorf("probe: consistency path: %w", err)
		}
		proof.Path = append(proof.Path, node)
	}
	oldRoot, err := unhex32(anchor.Root)
	if err != nil {
		return err
	}
	newRoot, err := unhex32(cur.Root)
	if err != nil {
		return err
	}
	if !ledger.VerifyConsistency(proof, oldRoot, newRoot) {
		return fmt.Errorf("probe: checkpoint consistency proof REJECTED: the served ledger does not extend the anchored checkpoint")
	}
	fmt.Printf("probe: %-34s verified (size %d -> %d)\n", "ledger consistency", anchor.Size, cur.Size)

	// Rules hot swap, then tenant info.
	status, body, err = doPut(client, base+"/v1/tenants/default/rules",
		mustJSON(server.RuleConfig{Container: "single"}))
	if err != nil {
		return err
	}
	if err := expect("PUT /v1/tenants/default/rules", status, http.StatusOK, body); err != nil {
		return err
	}
	if status, body, err = doGet(client, base+"/v1/tenants/default"); err != nil {
		return err
	}
	if err := expect("GET /v1/tenants/default", status, http.StatusOK, body); err != nil {
		return err
	}
	var tv server.TenantView
	if err := json.Unmarshal(body, &tv); err != nil {
		return err
	}
	if tv.Container != "single" {
		return fmt.Errorf("probe: hot swap not visible: container %q", tv.Container)
	}

	// Metrics: the probe's hostile traffic must not have crashed
	// anything.
	if status, body, err = doGet(client, base+"/metricsz"); err != nil {
		return err
	}
	if err := expect("GET /metricsz", status, http.StatusOK, body); err != nil {
		return err
	}
	var st server.Stats
	if err := json.Unmarshal(body, &st); err != nil {
		return err
	}
	if st.Panics != 0 {
		return fmt.Errorf("probe: server recovered %d panics during the probe", st.Panics)
	}

	fmt.Println("probe: PASS")
	return nil
}

// runBench starts an in-process server with the chaos hook, runs the
// loadgen schedule against it over real TCP, asserts the robustness
// invariants, and writes the lawgate-bench/v1 report.
func runBench(dur time.Duration, workers int, out string) error {
	s, err := server.New(
		server.WithAdmission(0, server.DefaultMaxWait),
		server.WithBodyReadTimeout(300*time.Millisecond),
		server.WithEvalHook(func(_ context.Context, _ string, a *legal.Action) {
			if a.Name == loadgen.ChaosPanicName {
				panic("chaos: poisoned evaluation")
			}
		}),
	)
	if err != nil {
		return err
	}
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		return err
	}
	goroutinesBefore := runtime.NumGoroutine()

	res, err := loadgen.Run(loadgen.Config{
		BaseURL:   "http://" + addr.String(),
		Workers:   workers,
		Duration:  dur,
		Chaos:     true,
		SwapEvery: dur / 20,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d requests in %s, statuses %v, %d swaps\n",
		res.Requests, res.Elapsed.Round(time.Millisecond), res.Statuses, res.Swaps)
	if err := res.Check(); err != nil {
		return err
	}

	// Drain and verify the shutdown path under the same run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		return fmt.Errorf("bench: drain after chaos: %w", err)
	}
	if len(s.FinalCheckpoints()) == 0 {
		return fmt.Errorf("bench: drain sealed no final checkpoint")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutinesBefore+5 {
		if time.Now().After(deadline) {
			return fmt.Errorf("bench: goroutine leak: %d now vs %d before the run",
				runtime.NumGoroutine(), goroutinesBefore)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Baseline measured in the same run: the direct in-process cost of
	// one evaluation, i.e. what the HTTP/admission/audit layers wrap.
	directNs := measureDirectEvaluate()

	report := benchReport{
		Schema:   "lawgate-bench/v1",
		Go:       runtime.Version(),
		Cores:    runtime.NumCPU(),
		Maxprocs: runtime.GOMAXPROCS(0),
		Count:    1,
		Benchmarks: []benchEntry{
			{Name: "ServerEvaluateP50", NsPerOp: float64(res.P50.Nanoseconds())},
			{Name: "ServerEvaluateP99", NsPerOp: float64(res.P99.Nanoseconds())},
			{Name: "ServerRulingsPerSec",
				NsPerOp:   1e9 / res.RulingsPerSec,
				OpsPerSec: res.RulingsPerSec},
			// Client and server share the bench process, so this counts
			// both sides of every request (chaos included): the server's
			// pooled hot path plus the harness's own per-request cost.
			{Name: "ServerAllocsPerRequest", AllocsPerOp: res.AllocsPerRequest},
		},
		Baseline: &benchBaseline{
			Note: "direct in-process Engine.Evaluate measured in the same run; the delta is the full HTTP + admission + audit overhead under the chaos schedule",
			Benchmarks: []benchEntry{
				{Name: "DirectEvaluate", NsPerOp: directNs},
			},
		},
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		return err
	}
	if out == "" {
		_, err = os.Stdout.Write(buf.Bytes())
		return err
	}
	if err := os.WriteFile(out, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: wrote %s (p50=%s p99=%s rulings/sec=%.0f)\n",
		out, res.P50, res.P99, res.RulingsPerSec)
	return nil
}

// measureDirectEvaluate times the bare engine on the bench action.
func measureDirectEvaluate() float64 {
	eng := legal.NewEngine(legal.WithRulingCache(0))
	a := probeAction("bench-direct")
	const n = 20000
	start := time.Now()
	for i := 0; i < n; i++ {
		if _, err := eng.Evaluate(a); err != nil {
			return 0
		}
	}
	return float64(time.Since(start).Nanoseconds()) / n
}

type benchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	OpsPerSec   float64 `json:"ops_per_sec,omitempty"`
}

type benchBaseline struct {
	Note       string       `json:"note"`
	Benchmarks []benchEntry `json:"benchmarks"`
}

type benchReport struct {
	Schema string `json:"schema"`
	Go     string `json:"go"`
	// Cores and Maxprocs record the machine the report was produced
	// on: latency and throughput claims are machine-relative, and CI
	// reads cores to decide which gates are meaningful.
	Cores      int            `json:"cores,omitempty"`
	Maxprocs   int            `json:"maxprocs,omitempty"`
	Count      int            `json:"count"`
	Benchmarks []benchEntry   `json:"benchmarks"`
	Baseline   *benchBaseline `json:"baseline"`
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func doGet(client *http.Client, url string) (int, []byte, error) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

func doPost(client *http.Client, url string, body []byte) (int, []byte, error) {
	resp, err := client.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func doPut(client *http.Client, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPut, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

func getCheckpoint(client *http.Client, url string) (server.CheckpointResponse, error) {
	var cp server.CheckpointResponse
	status, body, err := doGet(client, url)
	if err != nil {
		return cp, err
	}
	if status != http.StatusOK {
		return cp, fmt.Errorf("probe: checkpoint: status %d body %s", status, body)
	}
	return cp, json.Unmarshal(body, &cp)
}

func unhex32(s string) ([32]byte, error) {
	var out [32]byte
	b, err := hex.DecodeString(s)
	if err != nil {
		return out, err
	}
	if len(b) != 32 {
		return out, fmt.Errorf("digest %q is %d bytes, want 32", s, len(b))
	}
	copy(out[:], b)
	return out, nil
}
