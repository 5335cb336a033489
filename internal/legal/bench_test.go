// The rulings/sec throughput suite: how fast the engine serves ruling
// queries on the paths production consumers hit — a cold evaluation
// (full rule-table consultation), a warm one (ruling-cache hit), a warm
// one under never-seen case names (a name-blind cache hit), and
// the concurrent batch API across worker counts, with and without
// duplicate actions. scripts/bench.sh's `legal` target runs this family
// and writes the median numbers to BENCH_legal.json next to the
// embedded before-baseline (scripts/bench_baseline_legal.json).
//
// Every sub-benchmark does one Evaluate (or one whole batch) per
// iteration and also reports rulings/s, so ns/op and throughput can be
// read off the same line.
package legal_test

import (
	"context"
	"fmt"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

// table1Actions returns the paper's twenty Table 1 scenes — the
// representative production query mix.
func table1Actions() []legal.Action {
	scenes := scenario.Table1()
	actions := make([]legal.Action, len(scenes))
	for i, s := range scenes {
		actions[i] = s.Action
	}
	return actions
}

// distinctActions builds n unique-fingerprint actions by cycling the
// Table 1 shapes under fresh names. Exact dedup cannot collapse them;
// since PR 6 the batch delta-chain pre-pass does factor the repeated
// shapes into base+delta chains, so the batch rows now measure the
// near-duplicate compression most corpora exhibit (BENCH_legal.json's
// note marks the capture points).
func distinctActions(n int) []legal.Action {
	base := table1Actions()
	actions := make([]legal.Action, n)
	for i := range actions {
		a := base[i%len(base)]
		a.Name = fmt.Sprintf("distinct-%d", i)
		actions[i] = a
	}
	return actions
}

// duplicatedActions builds n actions drawn from only k distinct values,
// the shape of a batch where most queries repeat (a corpus re-scan).
func duplicatedActions(n, k int) []legal.Action {
	uniq := distinctActions(k)
	actions := make([]legal.Action, n)
	for i := range actions {
		actions[i] = uniq[i%k]
	}
	return actions
}

// BenchmarkRulingsPerSec is the engine throughput family the tracked
// BENCH_legal.json baseline records.
func BenchmarkRulingsPerSec(b *testing.B) {
	actions := table1Actions()

	// cold: every query consults the rule table (no cache configured).
	b.Run("cold", func(b *testing.B) {
		engine := legal.NewEngine()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Evaluate(actions[i%len(actions)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})

	// warm: the ruling cache already holds every query.
	b.Run("warm", func(b *testing.B) {
		engine := legal.NewEngine(legal.WithRulingCache(0))
		for _, a := range actions {
			if _, err := engine.Evaluate(a); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Evaluate(actions[i%len(actions)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})

	// warm-names: a warm engine where every query carries a case name
	// the cache never stored, on a Table 1 shape — the served traffic
	// shape. The name-blind cache key answers these from one memoized
	// ruling per shape.
	b.Run("warm-names", func(b *testing.B) {
		engine := legal.NewEngine(legal.WithRulingCache(0))
		for _, a := range actions {
			if _, err := engine.Evaluate(a); err != nil {
				b.Fatal(err)
			}
		}
		named := distinctActions(1 << 14)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.Evaluate(named[i%len(named)]); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})

	// batch: 4096 distinct actions per op through the concurrent batch
	// API, at fixed worker counts so numbers compare across machines.
	const batchSize = 4096
	distinct := distinctActions(batchSize)
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("batch/workers=%d", workers), func(b *testing.B) {
			engine := legal.NewEngine(legal.WithBatchWorkers(workers))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.EvaluateBatch(ctx, distinct); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "rulings/s")
		})
	}

	// batch-dup: the same batch size but only 64 distinct actions —
	// the within-batch deduplication workload.
	dup := duplicatedActions(batchSize, 64)
	b.Run("batch-dup", func(b *testing.B) {
		engine := legal.NewEngine(legal.WithBatchWorkers(4))
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.EvaluateBatch(ctx, dup); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "rulings/s")
	})
}

// BenchmarkEvaluateDelta measures re-evaluation after a small mutation
// — the streaming-capture event shape. full-rebuild/scalar2 is a
// two-flag delta paid as a full Evaluate of the mutated action on an
// uncached engine; delta/dim1 is a dimension escalation through
// EvaluateDelta, a warm cache hit.
func BenchmarkEvaluateDelta(b *testing.B) {
	base := legal.Action{
		Name:   "delta-bench",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingStored,
		Data:   legal.DataDeviceContents,
		Source: legal.SourceSeizedDevice,
	}
	var scalar2 legal.ActionDelta
	scalar2.SetFlag(legal.FieldEncrypted, false, true).
		SetFlag(legal.FieldProviderPublic, false, true)

	b.Run("full-rebuild/scalar2", func(b *testing.B) {
		engine := legal.NewEngine()
		prev, err := engine.Evaluate(base)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := prev.Action
			scalar2.Apply(&a)
			if _, err := engine.Evaluate(a); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})

	b.Run("delta/dim1", func(b *testing.B) {
		escalated := base
		escalated.Data = legal.DataContent
		engine := legal.NewEngine(legal.WithRulingCache(0))
		prev, err := engine.Evaluate(base)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Evaluate(escalated); err != nil {
			b.Fatal(err)
		}
		d := legal.Diff(&base, &escalated)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.EvaluateDelta(&prev, d); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "rulings/s")
	})
}

// chainActions builds n actions over `shapes` distinct scalar shapes
// (the Table 1 bases × Encrypted/ProviderPublic toggles) under fresh
// names — the near-duplicate workload the batch delta-chain pre-pass
// compresses to one evaluation per shape.
func chainActions(n, shapes int) []legal.Action {
	base := table1Actions()
	shaped := make([]legal.Action, shapes)
	for j := range shaped {
		a := base[j%len(base)]
		if (j/len(base))&1 != 0 {
			a.Encrypted = !a.Encrypted
		}
		if (j/len(base))&2 != 0 {
			a.ProviderPublic = !a.ProviderPublic
		}
		shaped[j] = a
	}
	actions := make([]legal.Action, n)
	for i := range actions {
		actions[i] = shaped[i%shapes]
		actions[i].Name = fmt.Sprintf("chain-%d", i)
	}
	return actions
}

// BenchmarkBatchDeltaChain measures EvaluateBatch on the near-duplicate
// batch (4096 actions, 64 shapes). The tracked baseline rows were
// captured before the chain pre-pass existed, when every slot paid a
// full evaluation.
func BenchmarkBatchDeltaChain(b *testing.B) {
	const batchSize = 4096
	actions := chainActions(batchSize, 64)
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			engine := legal.NewEngine(legal.WithBatchWorkers(workers))
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := engine.EvaluateBatch(ctx, actions); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N*batchSize)/b.Elapsed().Seconds(), "rulings/s")
		})
	}
}
