// Command evaluate runs an arbitrary investigative action, described by
// flags, through the lawgate compliance engine, printing the required
// process, the governing regime, the rationale chain, and — when the
// action needs process — the advisor's cheaper redesigns.
//
// Usage:
//
//	evaluate -actor government -timing realtime -data content -source isp
//	evaluate -actor provider -timing realtime -data addressing -source own
//	evaluate -actor government -timing stored -data device -source seized -beyond
//	evaluate -batch actions.json   (or "-batch -" to read stdin)
//
// Batch mode reads a JSON array of legal.Action values, evaluates them
// concurrently through Engine.EvaluateBatch with a ruling cache, and
// emits one JSON ruling view per action, in input order. With
// -engine-stats, the engine's cache and dispatch counters (hits,
// misses, evictions, rules scanned per walk) are printed to stderr
// after the batch.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"lawgate/internal/legal"
	"lawgate/internal/report"
)

var actors = map[string]legal.Actor{
	"government": legal.ActorGovernment,
	"directed":   legal.ActorGovernmentDirected,
	"private":    legal.ActorPrivate,
	"provider":   legal.ActorProvider,
}

var timings = map[string]legal.Timing{
	"realtime": legal.TimingRealTime,
	"stored":   legal.TimingStored,
}

var dataClasses = map[string]legal.DataClass{
	"content":    legal.DataContent,
	"addressing": legal.DataAddressing,
	"subscriber": legal.DataBasicSubscriber,
	"records":    legal.DataTransactionalRecords,
	"public":     legal.DataPublic,
	"device":     legal.DataDeviceContents,
}

var sources = map[string]legal.Source{
	"own":      legal.SourceOwnNetwork,
	"wireless": legal.SourceWirelessBroadcast,
	"isp":      legal.SourceThirdPartyNetwork,
	"held":     legal.SourceProviderStored,
	"service":  legal.SourcePublicService,
	"seized":   legal.SourceSeizedDevice,
	"remote":   legal.SourceRemoteAccount,
	"victim":   legal.SourceVictimSystem,
	"target":   legal.SourceTargetDevice,
}

var consents = map[string]legal.ConsentScope{
	"":           0,
	"owner":      legal.ConsentOwnData,
	"couser":     legal.ConsentCoUserSharedSpace,
	"spouse":     legal.ConsentSpouse,
	"parent":     legal.ConsentParentMinor,
	"employer":   legal.ConsentEmployerPrivate,
	"tos":        legal.ConsentProviderToS,
	"party":      legal.ConsentCommunicationParty,
	"trespasser": legal.ConsentVictimTrespasser,
}

func main() {
	var (
		actor   = flag.String("actor", "government", "actor: government, directed, private, provider")
		timing  = flag.String("timing", "realtime", "timing: realtime, stored")
		data    = flag.String("data", "content", "data: content, addressing, subscriber, records, public, device")
		source  = flag.String("source", "isp", "source: own, wireless, isp, held, service, seized, remote, victim, target")
		consent = flag.String("consent", "", "consent scope: owner, couser, spouse, parent, employer, tos, party, trespasser")
		beyond  = flag.Bool("beyond", false, "examination goes beyond the original authority (Crist)")
		relay   = flag.Bool("relay", false, "intercepts third-party communications as a relay operator")
		public  = flag.Bool("public-provider", true, "the holding provider serves the public")
		ecs     = flag.Bool("ecs", true, "the holding provider is an ECS/RCS for the data")
		asJSON  = flag.Bool("json", false, "emit the ruling as JSON")
		batch   = flag.String("batch", "", "evaluate a JSON array of actions from FILE (\"-\" = stdin)")
		deltas  = flag.String("deltas", "", "stream a JSONL file from FILE (\"-\" = stdin): first line a base action, then action deltas; rulings print only when they change")
		stats   = flag.Bool("engine-stats", false, "after a batch or delta run, print engine cache/dispatch counters to stderr")
	)
	flag.Parse()
	var err error
	if *deltas != "" {
		err = runDeltas(*deltas, *stats)
	} else if *batch != "" {
		err = runBatch(*batch, *stats)
	} else {
		err = run(*actor, *timing, *data, *source, *consent, *beyond, *relay, *public, *ecs, *asJSON)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "evaluate:", err)
		os.Exit(1)
	}
}

// printEngineStats renders the -engine-stats report: cache
// effectiveness and dispatch selectivity, written to stderr so the
// ruling JSON on stdout stays machine-readable.
func printEngineStats(w io.Writer, s legal.EngineStats) {
	fmt.Fprintf(w, "engine stats:\n")
	fmt.Fprintf(w, "  evaluations:     %d (+%d batch slots deduplicated, +%d delta-chained)\n",
		s.Evaluations, s.BatchDeduped, s.BatchDeltaChained)
	if s.DeltaEvaluations > 0 {
		fmt.Fprintf(w, "  delta evals:     %d\n", s.DeltaEvaluations)
	}
	fmt.Fprintf(w, "  cache:           %d hits / %d misses / %d evictions (%d rulings memoized)\n",
		s.CacheHits, s.CacheMisses, s.CacheEvictions, s.CacheSize)
	fmt.Fprintf(w, "  invalid actions: %d\n", s.InvalidActions)
	evaluated := s.Evaluations - s.InvalidActions
	if s.CacheMisses > 0 {
		evaluated = s.CacheMisses - s.InvalidActions
	}
	if evaluated > 0 {
		fmt.Fprintf(w, "  rules scanned:   %d (avg %.1f of %d per table walk)\n",
			s.RulesScanned, float64(s.RulesScanned)/float64(evaluated), s.RuleTableSize)
	} else {
		fmt.Fprintf(w, "  rules scanned:   %d (table size %d)\n", s.RulesScanned, s.RuleTableSize)
	}
}

func runBatch(path string, stats bool) error {
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	var actions []legal.Action
	if err := json.NewDecoder(src).Decode(&actions); err != nil {
		return fmt.Errorf("decoding actions: %w", err)
	}
	opts := []legal.EngineOption{legal.WithRulingCache(0)}
	if stats {
		opts = append(opts, legal.WithEngineStats())
	}
	engine := legal.NewEngine(opts...)
	rulings, err := engine.EvaluateBatch(context.Background(), actions)
	if err != nil {
		return err
	}
	views := make([]report.RulingView, len(rulings))
	for i, r := range rulings {
		views[i] = report.FromRuling(r)
	}
	if err := report.WriteJSON(os.Stdout, views); err != nil {
		return err
	}
	if stats {
		printEngineStats(os.Stderr, engine.Stats())
	}
	return nil
}

// runDeltas is the streaming mode: the first JSONL line is the base
// legal.Action, every further line a legal.ActionDelta mutating it. The
// base ruling always prints; after that a line prints only when an
// event moved the required process or governing regime — the monitor
// shape, driven from a file. Quiet events are counted, not printed.
func runDeltas(path string, stats bool) error {
	var src io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	sc := bufio.NewScanner(src)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)

	opts := []legal.EngineOption{legal.WithRulingCache(0)}
	if stats {
		opts = append(opts, legal.WithEngineStats())
	}
	engine := legal.NewEngine(opts...)

	var (
		ruling  legal.Ruling
		started bool
		event   int
		changed int
	)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		if !started {
			var base legal.Action
			if err := json.Unmarshal(line, &base); err != nil {
				return fmt.Errorf("decoding base action: %w", err)
			}
			r, err := engine.Evaluate(base)
			if err != nil {
				return err
			}
			ruling = r
			started = true
			fmt.Printf("base: required %s, regime %s\n", ruling.Required, ruling.Regime)
			continue
		}
		event++
		var d legal.ActionDelta
		if err := json.Unmarshal(line, &d); err != nil {
			return fmt.Errorf("decoding delta %d: %w", event, err)
		}
		next, err := engine.EvaluateDelta(&ruling, d)
		if err != nil {
			return fmt.Errorf("event %d: %w", event, err)
		}
		if next.Required != ruling.Required || next.Regime != ruling.Regime {
			changed++
			fmt.Printf("event %d %s: required %s, regime %s\n",
				event, d.Encoding(), next.Required, next.Regime)
		}
		ruling = next
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if !started {
		return fmt.Errorf("delta stream empty: want a base action on the first line")
	}
	fmt.Printf("%d events, %d ruling changes\n", event, changed)
	if stats {
		printEngineStats(os.Stderr, engine.Stats())
	}
	return nil
}

func run(actor, timing, data, source, consent string, beyond, relay, public, ecs, asJSON bool) error {
	a := legal.Action{Name: "cli-action"}
	var ok bool
	if a.Actor, ok = actors[actor]; !ok {
		return fmt.Errorf("unknown actor %q", actor)
	}
	if a.Timing, ok = timings[timing]; !ok {
		return fmt.Errorf("unknown timing %q", timing)
	}
	if a.Data, ok = dataClasses[data]; !ok {
		return fmt.Errorf("unknown data class %q", data)
	}
	if a.Source, ok = sources[source]; !ok {
		return fmt.Errorf("unknown source %q", source)
	}
	scope, ok := consents[consent]
	if !ok {
		return fmt.Errorf("unknown consent scope %q", consent)
	}
	if scope != 0 {
		a.Consent = &legal.Consent{Scope: scope}
	}
	a.SearchBeyondAuthority = beyond
	a.InterceptsThirdParty = relay
	a.ProviderPublic = public
	if a.Source == legal.SourceProviderStored {
		if ecs {
			a.ProviderRole = legal.ProviderECS
		} else {
			a.ProviderRole = legal.ProviderNone
		}
	}

	engine := legal.NewEngine()
	ruling, err := engine.Evaluate(a)
	if err != nil {
		return err
	}
	if asJSON {
		return report.WriteJSON(os.Stdout, report.FromRuling(ruling))
	}
	fmt.Printf("required: %s\nregime:   %s\n", ruling.Required, ruling.Regime)
	for _, reason := range ruling.Rationale {
		fmt.Printf("  · %s\n", reason)
	}
	for _, c := range ruling.Citations {
		fmt.Printf("  cite: %s\n", c.Title)
	}
	if ruling.NeedsProcess() {
		advice, err := engine.Advise(a)
		if err != nil {
			return err
		}
		if len(advice) > 0 {
			fmt.Println("\ncheaper redesigns (paper § V recommendation):")
			for _, ad := range advice {
				fmt.Printf("  -> %s: %s\n", ad.Ruling.Required, ad.Explanation)
			}
		}
	}
	return nil
}
