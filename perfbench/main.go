// Command perfbench is lawgate's end-to-end benchmark. It generates a
// workload's inputs from a seed, drives the program with them for a
// fixed time, checks every output, and prints one JSON result line.
//
// Run it from the repository root through run.sh, which builds
// cmd/lawgated and this program first:
//
//	bash perfbench/run.sh --workload rulings-closed --seed 1 --seconds 30 --trace 0
//
// Workloads:
//
//   - rulings-closed: one closed-loop client per CPU, each on its own
//     keep-alive connection to a lawgated child process, posting single
//     Table 1 scene evaluations under Zipf-drawn case names; 1 request
//     in 100 is an auditor's checkpoint read.
//   - batch-closed: one closed-loop client per CPU posting 256-action
//     batches with duplicates and single-field variants.
//   - sweep: in process, passes of two halves: the E2 (p2p) and E3
//     (watermark) series on the classic simulator engine with one Runner
//     worker per CPU, then the two sharded scale series at 2 partitions
//     with one engine worker per CPU.
//
// With --trace 0 the result carries the end-to-end metrics:
//
//   - setup_s: the median set-up time. Serving: lawgated's launch to its
//     first 200 from /readyz, over 9 launches before and after the load.
//     Sweep: declaring the grid and running its first trial, over 15
//     samples taken between passes.
//   - latency_p50_ms: the median wall time of a request, a batch or a
//     trial.
//   - cpu_us_per_op: CPU time of the process doing the work (lawgated,
//     or the sweep process) per ruling answered or per trial run.
//   - rss_mb: that process's resident set. Serving: lawgated's peak
//     after a fixed amount of work. Sweep: the median over passes of
//     the resident set after a full collection, as a pass's peak
//     follows the machine's speed (experiment.pass_peak_rss_mb).
//
// Throughput and tail latency are per-layer metrics (loadgen.*): on a
// few shared vCPUs they follow the host's load more than the program.
//
// With --trace 1 it carries the per-layer metrics of a traced run, whose
// spans are written to .bench_build/trace-<workload>.csv. Every run
// checks its outputs (the ruling oracle, the audit trail, the drain,
// sweep-series equality) and exits 1 when any check fails.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"lawgate/internal/legal"
	"lawgate/internal/server"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record states the conditions a result was measured under.
type record struct {
	Workload   string   `json:"workload"`
	Seed       int64    `json:"seed"`
	Seconds    int      `json:"seconds"`
	Trace      bool     `json:"trace"`
	Cores      int      `json:"cores"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	GoVersion  string   `json:"go"`
	Clients    int      `json:"clients,omitempty"`
	Lawgated   []string `json:"lawgated,omitempty"`
	Inputs     string   `json:"inputs_sha256"`
	Problems   []string `json:"problems,omitempty"`
}

type env struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	lawgated string
	workdir  string
	cpus     int
	rec      *record
}

func main() {
	var (
		e     env
		trace int
	)
	flag.StringVar(&e.workload, "workload", "", "rulings-closed, batch-closed or sweep")
	flag.Int64Var(&e.seed, "seed", 1, "workload seed; the inputs are a pure function of it")
	flag.IntVar(&e.seconds, "seconds", 10, "measured duration in seconds")
	flag.IntVar(&trace, "trace", 0, "1 for the traced run and its per-layer metrics")
	flag.StringVar(&e.lawgated, "lawgated", "", "path to the lawgated binary (serving workloads)")
	flag.StringVar(&e.workdir, "workdir", ".bench_build", "directory for port files and span dumps")
	flag.Parse()
	e.trace = trace == 1
	e.cpus = runtime.NumCPU()
	e.rec = &record{Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Cores: e.cpus, GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version()}

	res, err := run(&e)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, p := range e.rec.Problems {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", p)
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			res.Metrics[k] = metric{Value: -1, Unit: m.Unit}
		}
	}
	recLine, _ := json.Marshal(map[string]*record{"record": e.rec})
	resLine, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(recLine))
	fmt.Println(string(resLine))
	if !res.Correct {
		os.Exit(1)
	}
}

func run(e *env) (*result, error) {
	if err := os.MkdirAll(e.workdir, 0o755); err != nil {
		return nil, err
	}
	switch e.workload {
	case "rulings-closed", "batch-closed":
		if e.lawgated == "" {
			return nil, fmt.Errorf("-lawgated is required for %s", e.workload)
		}
		return runServing(e)
	case "sweep":
		return runSweep(e)
	}
	return nil, fmt.Errorf("unknown workload %q", e.workload)
}

func runServing(e *env) (*result, error) {
	var (
		load   loadFunc
		replay func(n int) ([]request, error)
		dur    = time.Duration(e.seconds) * time.Second
	)
	e.rec.Clients = e.cpus
	e.rec.Lawgated = append([]string{"lawgated"}, lawgatedArgs(filepath.Join(e.workdir, "lawgated-N.port"))...)
	if e.workload == "rulings-closed" {
		in, err := genRulings(e.seed, e.seconds)
		if err != nil {
			return nil, err
		}
		e.rec.Inputs = inputDigest(in, nil, nil)
		load = rulingsLoad(in, e.cpus, dur)
		// The replay covers the stream prefix the load sent.
		replay = func(n int) ([]request, error) {
			o := newOracle()
			qs := make([]request, 0, n)
			for i := 0; i < n && i < len(in.cases); i++ {
				q, err := in.request(o, in.cases[i])
				if err != nil {
					return nil, err
				}
				qs = append(qs, q)
			}
			return qs, nil
		}
	} else {
		in, err := genBatches(e.seed)
		if err != nil {
			return nil, err
		}
		e.rec.Inputs = inputDigest(nil, in, nil)
		load = batchLoad(in, e.cpus, dur)
		replay = func(int) ([]request, error) {
			var qs []request
			for i := 0; i < 3; i++ {
				qs = append(qs, in.pool...)
			}
			return qs, nil
		}
	}
	sr, err := serveAndMeasure(e.lawgated, e.workdir, load)
	if err != nil {
		return nil, err
	}
	e.rec.Problems = append(e.rec.Problems, sr.problems...)
	res := &result{Attempted: sr.load.attempted, Failed: sr.failed}
	if !e.trace {
		res.Metrics = map[string]metric{
			"setup_s":        {median(sr.setup), "s"},
			"latency_p50_ms": {quantile(sr.load.lat, 0.50), "ms"},
			"cpu_us_per_op":  {ratio(sr.load.serverCPU.Seconds()*1e6, float64(sr.load.timedRulings)), "us"},
			"rss_mb":         {sr.rssMB, "MB"},
		}
	} else {
		qs, err := replay(min(sr.load.attempted, maxReplay))
		if err != nil {
			return nil, err
		}
		rp, err := replayStream(qs)
		if err != nil {
			return nil, err
		}
		if err := rp.tr.write(filepath.Join(e.workdir, "trace-"+e.workload+".csv")); err != nil {
			return nil, err
		}
		res.Metrics = servingLayers(e, sr, rp)
		actions := 1
		if e.workload == "batch-closed" {
			actions = batchSize
		}
		reportBreakdown(res.Metrics, actions)
	}
	res.Correct = res.Failed == 0 && len(e.rec.Problems) == 0
	return res, nil
}

// maxReplay caps the requests the traced in-process replay runs.
const maxReplay = 30_000

func runSweep(e *env) (*result, error) {
	build := func() sweepGrid { return buildSweepGrid(e.seed, e.cpus) }
	g := build()
	e.rec.Clients = g[0].workers
	e.rec.Inputs = inputDigest(nil, nil, g)
	sr, err := measureSweeps(build, time.Duration(e.seconds)*time.Second, e.trace)
	if err != nil {
		return nil, err
	}
	e.rec.Problems = append(e.rec.Problems, sr.problems...)
	res := &result{Attempted: sr.attempted(), Failed: sr.failed, Metrics: map[string]metric{}}
	res.Correct = sr.failed == 0
	if !res.Correct {
		// A failed pass leaves nothing sound to measure.
		return res, nil
	}
	if !e.trace {
		var (
			cpu time.Duration
			lat []float64
		)
		for _, p := range sr.passes {
			cpu += p.cpu
			for _, d := range p.trials {
				lat = append(lat, ms(d))
			}
		}
		res.Metrics = map[string]metric{
			"setup_s":        {median(sr.setup), "s"},
			"latency_p50_ms": {median(lat), "ms"},
			"cpu_us_per_op":  {ratio(cpu.Seconds()*1e6, float64(len(lat))), "us"},
			"rss_mb":         {median(sr.heldMB), "MB"},
		}
		return res, nil
	}
	if err := sr.traced.write(filepath.Join(e.workdir, "trace-"+e.workload+".csv")); err != nil {
		return nil, err
	}
	res.Metrics = sweepLayers(g, sr)
	return res, nil
}

// layerMetrics lists every per-layer metric with its unit; a workload
// that does not exercise a layer reports 0 for it.
var layerMetrics = []struct{ name, unit string }{
	{"server.handler_us_p50", "us"},
	{"server.self_us_p50", "us"},
	{"server.http_us_p50", "us"},
	{"server.allocs_per_request", "count"},
	{"server.handler_share_of_p50", "share"},
	{"wire.decode_ns_per_action", "ns"},
	{"wire.encode_ns_per_ruling", "ns"},
	{"wire.request_bytes_mean", "bytes"},
	{"legal.evaluate_ns_p50", "ns"},
	{"legal.cache_hit_ratio", "share"},
	{"legal.rules_scanned_per_eval", "count"},
	{"legal.batch_ns_per_action", "ns"},
	{"legal.batch_dedup_share", "share"},
	{"legal.delta_chain_share", "share"},
	{"ledger.append_ns_per_record", "ns"},
	{"ledger.records_per_ruling", "count"},
	{"ledger.checkpoint_us_p50", "us"},
	{"loadgen.latency_p90_ms", "ms"},
	{"loadgen.latency_p99_ms", "ms"},
	{"loadgen.ops_per_s", "1/s"},
	{"experiment.trial_busy_s", "s"},
	{"experiment.worker_idle_share", "share"},
	{"experiment.classic_pass_s", "s"},
	{"experiment.scale_pass_s", "s"},
	{"experiment.pass_peak_rss_mb", "MB"},
	{"p2p.trial_ms_p50", "ms"},
	{"watermark.trial_ms_p50", "ms"},
	{"p2p.scale_trial_ms_p50", "ms"},
	{"watermark.scale_trial_ms_p50", "ms"},
	{"trace.overhead_share", "share"},
}

func layerSet(values map[string]float64) map[string]metric {
	out := make(map[string]metric, len(layerMetrics))
	for _, m := range layerMetrics {
		out[m.name] = metric{values[m.name], m.unit}
	}
	return out
}

func servingLayers(e *env, sr *servedRun, rp *replayResult) map[string]metric {
	tr := rp.tr
	v := map[string]float64{}
	// Handler and self time cover ruling requests only: auditor reads
	// are a different population.
	handler := median(rp.handlerUs)
	latencyUs := quantile(sr.load.lat, 0.5) * 1e3
	v["server.handler_us_p50"] = handler
	v["server.self_us_p50"] = median(rp.selfUs)
	v["server.http_us_p50"] = latencyUs - handler
	v["server.allocs_per_request"] = rp.allocsPerRequest
	v["server.handler_share_of_p50"] = ratio(handler, latencyUs)
	v["wire.decode_ns_per_action"] = median(rp.decodeNs)
	v["wire.encode_ns_per_ruling"] = median(rp.encodeNs)
	v["wire.request_bytes_mean"] = mean(rp.requestBytes)
	v["legal.evaluate_ns_p50"] = median(tr.durations(spEvaluate))
	// Exact counts from the served engine.
	st := servedEngineStats(sr.after)
	v["legal.cache_hit_ratio"] = ratio(float64(st.CacheHits), float64(st.CacheHits+st.CacheMisses))
	v["legal.rules_scanned_per_eval"] = ratio(float64(st.RulesScanned), float64(st.CacheMisses-st.InvalidActions))
	v["legal.batch_ns_per_action"] = median(rp.batchNsPerAction)
	slots := float64(st.Evaluations + st.BatchDeduped + st.BatchDeltaChained)
	if e.workload == "batch-closed" {
		v["legal.batch_dedup_share"] = ratio(float64(st.BatchDeduped), slots)
		v["legal.delta_chain_share"] = ratio(float64(st.BatchDeltaChained), slots)
	}
	var appendNs float64
	for _, d := range tr.durations(spAppendBatch) {
		appendNs += d
	}
	v["ledger.append_ns_per_record"] = ratio(appendNs, float64(rp.records))
	served := sr.after.LedgerSize - sr.before.LedgerSize
	v["ledger.records_per_ruling"] = ratio(float64(served), slots)
	v["ledger.checkpoint_us_p50"] = median(tr.durations(spCheckpoint)) / 1e3
	v["loadgen.latency_p90_ms"] = quantile(sr.load.lat, 0.90)
	v["loadgen.latency_p99_ms"] = quantile(sr.load.lat, 0.99)
	v["loadgen.ops_per_s"] = float64(sr.load.timedRulings) / sr.load.elapsed.Seconds()
	v["trace.overhead_share"] = rp.tracedHandlerNs/rp.untracedNs - 1
	return layerSet(v)
}

// reportBreakdown prints, to stderr, where a served request's median
// time goes: TCP and net/http outside the handler, then the handler's
// own work and the layer calls it makes for a request of n actions.
func reportBreakdown(m map[string]metric, n int) {
	v := func(name string) float64 { return m[name].Value }
	evalUs := v("legal.evaluate_ns_p50") / 1e3
	if n > 1 {
		evalUs = v("legal.batch_ns_per_action") * float64(n) / 1e3
	}
	fmt.Fprintf(os.Stderr, "perfbench: p50 request (us): outside handler %.1f + handler %.1f; handler = self %.1f + decode %.1f + evaluate %.1f + encode %.1f (+ ledger %.2f per record, amortized); handler share of p50 %.3f\n",
		v("server.http_us_p50"), v("server.handler_us_p50"), v("server.self_us_p50"),
		v("wire.decode_ns_per_action")*float64(n)/1e3, evalUs, v("wire.encode_ns_per_ruling")*float64(n)/1e3,
		v("ledger.append_ns_per_record")/1e3, v("server.handler_share_of_p50"))
}

// servedEngineStats reads the exact engine counters lawgated exposes.
func servedEngineStats(v server.TenantView) legal.EngineStats {
	if v.Engine == nil {
		return legal.EngineStats{}
	}
	return *v.Engine
}

func sweepLayers(g sweepGrid, sr *sweepRun) map[string]metric {
	v := map[string]float64{}
	untraced := sr.passes[0]
	var busy, classicBusy float64
	var lat []float64
	for i, d := range untraced.trials {
		busy += d.Seconds()
		if untraced.halves[i] == 0 {
			classicBusy += d.Seconds()
		}
		lat = append(lat, ms(d))
	}
	v["loadgen.latency_p90_ms"] = quantile(lat, 0.90)
	v["loadgen.latency_p99_ms"] = quantile(lat, 0.99)
	v["loadgen.ops_per_s"] = float64(len(lat)) / untraced.wall.Seconds()
	v["experiment.trial_busy_s"] = busy
	// The classic half is the one with parallel Runner workers.
	v["experiment.worker_idle_share"] = 1 - classicBusy/(untraced.halfWall[0].Seconds()*float64(g[0].workers))
	v["experiment.classic_pass_s"] = untraced.halfWall[0].Seconds()
	v["experiment.scale_pass_s"] = untraced.halfWall[1].Seconds()
	v["experiment.pass_peak_rss_mb"] = sr.peakMB[0]
	byLayer := map[string][]float64{}
	for _, s := range sr.traced.spans {
		if s.name != spTrial {
			continue
		}
		key := family(s.label) + ".trial_ms_p50"
		if strings.HasPrefix(s.label, g[1].name+"/") {
			key = family(s.label) + ".scale_trial_ms_p50"
		}
		byLayer[key] = append(byLayer[key], s.dur()/1e6)
	}
	for key, ds := range byLayer {
		v[key] = median(ds)
	}
	v["trace.overhead_share"] = sr.overhead
	return layerSet(v)
}
