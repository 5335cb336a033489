// Benchmarks regenerating the paper's evaluation artifacts, one per
// experiment in DESIGN.md's index (E1-E6), plus the ablations DESIGN.md
// calls out. Run with:
//
//	go test -bench=. -benchmem
package lawgate_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"

	"lawgate"
	"lawgate/internal/court"
	"lawgate/internal/evidence"
	"lawgate/internal/experiment"
	"lawgate/internal/investigation"
	"lawgate/internal/legal"
	"lawgate/internal/p2p"
	"lawgate/internal/watermark"
)

// BenchmarkTable1 (E1): evaluate all twenty Table 1 scenes.
func BenchmarkTable1(b *testing.B) {
	engine := lawgate.NewEngine()
	scenes := lawgate.Table1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, s := range scenes {
			r, err := engine.Evaluate(s.Action)
			if err != nil {
				b.Fatal(err)
			}
			if r.NeedsProcess() != s.PaperNeeds {
				b.Fatalf("scene %d diverged from the paper", s.Number)
			}
		}
	}
}

// BenchmarkP2PTimingAttack (E2): one full § IV-A classification trial per
// probe budget.
func BenchmarkP2PTimingAttack(b *testing.B) {
	for _, probes := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("probes=%d", probes), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := p2p.RunExperiment(p2p.ExperimentConfig{
					Seed:      int64(i + 1),
					Neighbors: 12,
					Sources:   5,
					Probes:    probes,
					Overlay:   p2p.DefaultConfig(p2p.ModeAnonymous),
				})
				if err != nil {
					b.Fatal(err)
				}
				_ = res.Accuracy()
			}
		})
	}
}

// BenchmarkWatermarkDetect (E3): one full § IV-B trial per code length —
// the "long PN code" ablation.
func BenchmarkWatermarkDetect(b *testing.B) {
	for _, degree := range []int{5, 7, 9} {
		b.Run(fmt.Sprintf("code=%d", (1<<degree)-1), func(b *testing.B) {
			ec := watermark.DefaultExperimentConfig()
			ec.CodeDegree = degree
			ec.Bits = 2
			for i := 0; i < b.N; i++ {
				ec.Seed = int64(i + 1)
				if _, err := watermark.RunExperiment(ec); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBaselineCorrelation (E3 ablation): the naive comparator on
// series of the same length the watermark trial produces.
func BenchmarkBaselineCorrelation(b *testing.B) {
	n := 2400
	tx := make([]int, n)
	rx := make([]int, n)
	for i := range tx {
		tx[i] = 10 + i%7
		rx[i] = 10 + (i+3)%7
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		watermark.BaselineCorrelation(tx, rx, 20)
	}
}

// BenchmarkProbableCause (E4): showing assessment and warrant issuance.
func BenchmarkProbableCause(b *testing.B) {
	now := time.Date(2012, time.June, 1, 0, 0, 0, 0, time.UTC)
	facts := []court.Fact{
		{Kind: court.FactInformantTip, ObservedAt: now},
		{Kind: court.FactAccountMembership, ObservedAt: now},
		{Kind: court.FactIntentEvidence, ObservedAt: now},
		{Kind: court.FactIPAttribution, ObservedAt: now},
	}
	c := court.NewCourt(court.WithCourtClock(func() time.Time { return now }))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if s := court.AssessShowing(facts, now); s != legal.ShowingProbableCause {
			b.Fatal("showing regression")
		}
		if _, err := c.Apply(court.Application{
			Process: legal.ProcessSearchWarrant,
			Facts:   facts,
			Place:   "12 Oak St",
			Things:  []string{"computers"},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSuppressionAnalysis (E6): taint propagation over a derivation
// chain.
func BenchmarkSuppressionAnalysis(b *testing.B) {
	for _, depth := range []int{10, 100} {
		b.Run(fmt.Sprintf("chain=%d", depth), func(b *testing.B) {
			action := legal.Action{
				Name:   "step",
				Actor:  legal.ActorGovernment,
				Timing: legal.TimingStored,
				Data:   legal.DataDeviceContents,
				Source: legal.SourceTargetDevice,
			}
			l := evidence.NewLocker()
			var prev evidence.ID
			for i := 0; i < depth; i++ {
				req := evidence.AcquireRequest{
					Description: "link",
					Action:      action,
					Held:        legal.ProcessNone, // tainted root chain
				}
				if i > 0 {
					req.Parents = []evidence.ID{prev}
				}
				it, err := l.Acquire(req)
				if err != nil {
					b.Fatal(err)
				}
				prev = it.ID
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				as := l.Assess()
				if len(as) != depth {
					b.Fatal("assessment size regression")
				}
			}
		})
	}
}

// BenchmarkCustodyChain (ablation 5): per-entry SHA-256 chaining cost and
// verification.
func BenchmarkCustodyChain(b *testing.B) {
	b.Run("append", func(b *testing.B) {
		var log evidence.CustodyLog
		now := time.Date(2012, time.June, 1, 0, 0, 0, 0, time.UTC)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			log.Append(now, "agent", evidence.EventExamined, "EV-0001", "bench")
		}
	})
	b.Run("verify-1000", func(b *testing.B) {
		var log evidence.CustodyLog
		now := time.Date(2012, time.June, 1, 0, 0, 0, 0, time.UTC)
		for i := 0; i < 1000; i++ {
			log.Append(now, "agent", evidence.EventExamined, "EV-0001", "bench")
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := log.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEndToEndFlows (E2+E3 integration): the complete Section IV
// investigations, legal steps included.
func BenchmarkEndToEndFlows(b *testing.B) {
	b.Run("p2p-traceback", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := investigation.RunP2PTraceback(investigation.P2PTracebackConfig{
				Seed: int64(i + 1), Neighbors: 8, Sources: 3, Probes: 4,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("watermark-traceback", func(b *testing.B) {
		ec := watermark.DefaultExperimentConfig()
		ec.Bits = 2
		for i := 0; i < b.N; i++ {
			ec.Seed = int64(i + 1)
			if _, err := investigation.RunWatermarkTraceback(ec); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineEvaluate: raw engine throughput on a representative mix.
func BenchmarkEngineEvaluate(b *testing.B) {
	engine := legal.NewEngine()
	actions := make([]legal.Action, 0, 20)
	for _, s := range lawgate.Table1() {
		actions = append(actions, s.Action)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Evaluate(actions[i%len(actions)]); err != nil {
			b.Fatal(err)
		}
	}
}

// syntheticActions builds n distinct actions by cycling the Table 1
// scenes under fresh names — a corpus-scale workload with no duplicate
// fingerprints, so the cache cannot shortcut it.
func syntheticActions(n int) []legal.Action {
	scenes := lawgate.Table1()
	actions := make([]legal.Action, n)
	for i := range actions {
		a := scenes[i%len(scenes)].Action
		a.Name = fmt.Sprintf("synthetic-%d", i)
		actions[i] = a
	}
	return actions
}

// BenchmarkEvaluateBatch: 10k distinctly named actions over the Table 1
// shapes, sequential loop vs the batch API. The batch runs on one
// goroutine too; its >= 2x over the sequential loop comes from the
// keyed pass, which evaluates each shape once and answers every other
// slot from it, not from cores.
func BenchmarkEvaluateBatch(b *testing.B) {
	actions := syntheticActions(10_000)
	b.Run("sequential", func(b *testing.B) {
		engine := legal.NewEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range actions {
				if _, err := engine.Evaluate(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		engine := legal.NewEngine()
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.EvaluateBatch(ctx, actions); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEvaluateCached: re-evaluating the whole Table 1 catalog on a
// warm ruling cache vs a cache-less engine. The cached path must beat
// uncached by >= 5x (the PR's acceptance criterion).
func BenchmarkEvaluateCached(b *testing.B) {
	actions := make([]legal.Action, 0, 20)
	for _, s := range lawgate.Table1() {
		actions = append(actions, s.Action)
	}
	b.Run("uncached", func(b *testing.B) {
		engine := legal.NewEngine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range actions {
				if _, err := engine.Evaluate(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		engine := legal.NewEngine(legal.WithRulingCache(0))
		for _, a := range actions { // warm the cache
			if _, err := engine.Evaluate(a); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, a := range actions {
				if _, err := engine.Evaluate(a); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkContainerDoctrine (ablation 6): scene 18 under the two
// closed-container doctrines the paper says courts disagree on.
func BenchmarkContainerDoctrine(b *testing.B) {
	hashSearch := legal.Action{
		Name:                  "hash-whole-drive",
		Actor:                 legal.ActorGovernment,
		Timing:                legal.TimingStored,
		Data:                  legal.DataDeviceContents,
		Source:                legal.SourceSeizedDevice,
		SearchBeyondAuthority: true,
	}
	b.Run("per-file", func(b *testing.B) {
		e := legal.NewEngine()
		for i := 0; i < b.N; i++ {
			r, err := e.Evaluate(hashSearch)
			if err != nil {
				b.Fatal(err)
			}
			if r.Required != legal.ProcessSearchWarrant {
				b.Fatal("per-file doctrine regression")
			}
		}
	})
	b.Run("single", func(b *testing.B) {
		e := legal.NewEngine(legal.WithContainerDoctrine(legal.ContainerSingle))
		for i := 0; i < b.N; i++ {
			r, err := e.Evaluate(hashSearch)
			if err != nil {
				b.Fatal(err)
			}
			if r.NeedsProcess() {
				b.Fatal("single-container doctrine regression")
			}
		}
	})
}

// BenchmarkAdvisor: redesign suggestions for every Table 1 scene needing
// process.
func BenchmarkAdvisor(b *testing.B) {
	engine := legal.NewEngine()
	var needs []legal.Action
	for _, s := range lawgate.Table1() {
		r, err := engine.Evaluate(s.Action)
		if err != nil {
			b.Fatal(err)
		}
		if r.NeedsProcess() {
			needs = append(needs, s.Action)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, a := range needs {
			if _, err := engine.Advise(a); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkSweepRunner (E2/E3 harness): the real experiment sweeps on
// the shared runner, serial vs all cores. On a 4+ core machine the
// parallel watermark sweep must beat serial by >= 2x wall-clock (the
// PR's acceptance criterion); results are byte-identical either way
// (asserted by TestSweepDeterministicAcrossWorkers in both packages).
func BenchmarkSweepRunner(b *testing.B) {
	wmBase := watermark.DefaultExperimentConfig()
	wmBase.Bits = 2
	noises := []float64{0, 0.5, 1, 2}
	p2pBase := p2p.DefaultSweepConfig()
	p2pBase.Reps = 2
	probes := []int{1, 4, 16}
	for _, workers := range []int{1, runtime.NumCPU()} {
		runner := experiment.Runner{Workers: workers}
		b.Run(fmt.Sprintf("watermark-noise/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sw := watermark.NoiseSweep(wmBase, 2, int64(i+1), noises)
				if _, err := runner.Run(context.Background(), sw); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("p2p-probes/workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sc := p2pBase
				sc.Seed = int64(i + 1)
				if _, err := runner.Run(context.Background(), p2p.ProbeSweep(sc, probes)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLineup (E3 extension): identify the downloader among K
// candidates — the paper's situation one in its investigative shape.
func BenchmarkLineup(b *testing.B) {
	for _, k := range []int{2, 8} {
		b.Run(fmt.Sprintf("candidates=%d", k), func(b *testing.B) {
			lc := watermark.DefaultLineupConfig()
			lc.Suspects = k
			lc.Bits = 2
			for i := 0; i < b.N; i++ {
				lc.Seed = int64(i + 1)
				lc.Guilty = i % k
				res, err := watermark.RunLineup(lc)
				if err != nil {
					b.Fatal(err)
				}
				if !res.Correct {
					b.Logf("trial %d misidentified (scores %v)", i, res.Scores)
				}
			}
		})
	}
}
