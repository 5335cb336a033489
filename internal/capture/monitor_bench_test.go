package capture

import (
	"testing"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// BenchmarkMonitorBurst measures the full per-event cost of a capture
// monitor on a warm cached engine: re-ruling the delta, the transcript
// line, and (in ledger) sealing one audit record. Each op is a fresh
// monitor fed a fixed burst cycling through a quiet event (encrypt the
// tap), a scope escalation to content, and their reversals, so half the
// events change the ruling. ns/event is the cost of one event.
func BenchmarkMonitorBurst(b *testing.B) {
	const burst = 256
	base := legal.Action{
		Name:   "bench-capture",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingRealTime,
		Data:   legal.DataAddressing,
		Source: legal.SourceThirdPartyNetwork,
	}
	encrypted := base
	encrypted.Encrypted = true
	escalated := encrypted
	escalated.Data = legal.DataContent
	plainContent := escalated
	plainContent.Encrypted = false
	cycle := []legal.ActionDelta{
		legal.Diff(&base, &encrypted),
		legal.Diff(&encrypted, &escalated),
		legal.Diff(&escalated, &plainContent),
		legal.Diff(&plainContent, &base),
	}
	engine := legal.NewEngine(legal.WithRulingCache(0))
	for _, a := range []legal.Action{base, encrypted, escalated, plainContent} {
		if _, err := engine.Evaluate(a); err != nil {
			b.Fatal(err)
		}
	}

	run := func(b *testing.B, withLedger bool) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var opts []MonitorOption
			if withLedger {
				opts = append(opts, WithAuditLedger(ledger.New(), "op-bench", "dev-bench"))
			}
			m, err := NewMonitor(engine, base, opts...)
			if err != nil {
				b.Fatal(err)
			}
			for k := 0; k < burst; k++ {
				if _, _, err := m.Apply(time.Duration(k)*time.Millisecond, cycle[k%len(cycle)]); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*burst), "ns/event")
	}
	b.Run("cached", func(b *testing.B) { run(b, false) })
	b.Run("cached-ledger", func(b *testing.B) { run(b, true) })
}
