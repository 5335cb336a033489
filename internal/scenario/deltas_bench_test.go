package scenario

import (
	"testing"

	"lawgate/internal/legal"
)

// BenchmarkDeltaChains measures the Table 1 what-if stream end to end:
// each op rules the twenty scenes and replays every event chain, delta
// encoding included. ns/event divides the whole op, base rulings
// included, by the number of chain events. cached reuses one warm
// ruling cache across ops; uncached walks the dispatch bucket for every
// ruling.
func BenchmarkDeltaChains(b *testing.B) {
	for _, bc := range []struct {
		name string
		opts []legal.EngineOption
	}{
		{"cached", []legal.EngineOption{legal.WithRulingCache(0)}},
		{"uncached", nil},
	} {
		b.Run(bc.name, func(b *testing.B) {
			engine := legal.NewEngine(bc.opts...)
			chains, err := DeltaChains(engine)
			if err != nil {
				b.Fatal(err)
			}
			events := 0
			for _, ch := range chains {
				events += len(ch.Events)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := DeltaChains(engine); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}
