package scenario_test

import (
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

// TestTable1DispatchSelectivity asserts, through the engine's own
// counters, that the compiled dispatch index pays off on the paper's
// workload: a cold evaluation of every Table 1 scene must consult
// strictly fewer rules than the table holds — i.e. no scene degrades to
// the naive linear scan.
func TestTable1DispatchSelectivity(t *testing.T) {
	for _, s := range scenario.Table1() {
		e := legal.NewEngine(legal.WithEngineStats())
		if _, err := e.Evaluate(s.Action); err != nil {
			t.Fatalf("scene %d: %v", s.Number, err)
		}
		st := e.Stats()
		if st.Evaluations != 1 {
			t.Fatalf("scene %d: Evaluations = %d, want 1", s.Number, st.Evaluations)
		}
		if st.RulesScanned == 0 {
			t.Fatalf("scene %d: no rules scanned", s.Number)
		}
		if st.RulesScanned >= uint64(st.RuleTableSize) {
			t.Errorf("scene %d (%s): cold evaluation scanned %d of %d rules — dispatch gained nothing",
				s.Number, s.Action.Name, st.RulesScanned, st.RuleTableSize)
		}
	}
}

// TestTable1CacheCounters pins the cache counters on the Table 1
// workload. No default rule reads Name, so the cache keys every scene
// by its name-blind shape: scenes that differ only in name (p2p-public
// and anon-p2p-public; tor-relay-intercept and anonymizer-monitor)
// share one memoized ruling. The cold pass therefore misses once per
// distinct shape and hits on the rest, a second pass must be all hits,
// hits must not re-scan rules, and every ruling must still echo its
// own scene's name.
func TestTable1CacheCounters(t *testing.T) {
	for _, r := range legal.DefaultRules() {
		if r.Match.Reads == nil {
			t.Fatalf("rule %s is unannotated; the shape count below assumes no rule reads Name", r.Name)
		}
		for _, f := range r.Match.Reads {
			if f == legal.FieldName {
				t.Fatalf("rule %s reads Name; the shape count below assumes none does", r.Name)
			}
		}
	}
	scenes := scenario.Table1()
	shapes := make(map[string]bool)
	for _, s := range scenes {
		a := s.Action
		a.Name = ""
		shapes[a.Fingerprint()] = true
	}

	e := legal.NewEngine(legal.WithRulingCache(32), legal.WithEngineStats())
	pass := func() {
		for _, s := range scenes {
			r, err := e.Evaluate(s.Action)
			if err != nil {
				t.Fatalf("scene %d: %v", s.Number, err)
			}
			if r.Action.Name != s.Action.Name {
				t.Fatalf("scene %d: ruling echoes name %q, want %q", s.Number, r.Action.Name, s.Action.Name)
			}
		}
	}
	pass()
	cold := e.Stats()
	wantHits := uint64(len(scenes) - len(shapes))
	if cold.CacheMisses != uint64(len(shapes)) || cold.CacheHits != wantHits {
		t.Fatalf("cold pass: %d misses / %d hits, want %d / %d",
			cold.CacheMisses, cold.CacheHits, len(shapes), wantHits)
	}
	pass()
	warm := e.Stats()
	if warm.CacheHits != cold.CacheHits+uint64(len(scenes)) || warm.CacheMisses != cold.CacheMisses {
		t.Fatalf("warm pass: %d hits / %d misses, want %d / %d",
			warm.CacheHits, warm.CacheMisses, cold.CacheHits+uint64(len(scenes)), cold.CacheMisses)
	}
	if warm.RulesScanned != cold.RulesScanned {
		t.Fatalf("cache hits re-scanned rules: %d -> %d", cold.RulesScanned, warm.RulesScanned)
	}
	if warm.CacheSize != len(shapes) {
		t.Fatalf("cache size %d, want %d distinct shapes", warm.CacheSize, len(shapes))
	}
}
