// Allocation-regression guards for the evaluation hot path. The
// zero-allocation warm-cache Evaluate is a measured performance win
// (see BENCH_legal.json); these tests pin it so a later refactor cannot
// silently rot it back, the way internal/netsim/alloc_test.go pins the
// simulator's event slab.
package legal_test

import (
	"context"
	"testing"

	"lawgate/internal/legal"
)

// warmedEngine returns a cached engine with every given action already
// memoized.
func warmedEngine(t testing.TB, actions []legal.Action) *legal.Engine {
	t.Helper()
	e := legal.NewEngine(legal.WithRulingCache(len(actions)))
	for _, a := range actions {
		if _, err := e.Evaluate(a); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// TestEvaluateWarmZeroAlloc pins the cache-hit Evaluate to exactly zero
// allocations: the lookup hashes the action field-wise (no fingerprint
// string), probes the lock-free table, verifies structurally, and
// returns the memoized ruling.
func TestEvaluateWarmZeroAlloc(t *testing.T) {
	actions := []legal.Action{
		{
			Name:   "warm-alloc-stored",
			Actor:  legal.ActorGovernment,
			Timing: legal.TimingStored,
			Data:   legal.DataDeviceContents,
			Source: legal.SourceSeizedDevice,
		},
		{
			Name:     "warm-alloc-realtime",
			Actor:    legal.ActorProvider,
			Timing:   legal.TimingRealTime,
			Data:     legal.DataAddressing,
			Source:   legal.SourceOwnNetwork,
			Exposure: []legal.ExposureFact{legal.ExposurePolicyEliminatesREP},
		},
		{
			Name:    "warm-alloc-consent",
			Actor:   legal.ActorGovernment,
			Timing:  legal.TimingStored,
			Data:    legal.DataContent,
			Source:  legal.SourceProviderStored,
			Consent: &legal.Consent{Scope: legal.ConsentOwnData},
		},
	}
	e := warmedEngine(t, actions)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.Evaluate(actions[i%len(actions)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("warm-cache Evaluate allocs/op = %v, want 0", allocs)
	}
}

// TestEvaluateWarmNamesZeroAlloc pins the name-blind cache hit to zero
// allocations: a warm engine answering Table 1 shapes under case names
// it never stored re-labels the memoized ruling in place (the
// BenchmarkRulingsPerSec/warm-names workload).
func TestEvaluateWarmNamesZeroAlloc(t *testing.T) {
	e := warmedEngine(t, table1Actions())
	named := distinctActions(4096)
	before := e.CacheSize()
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		a := &named[i%len(named)]
		r, err := e.Evaluate(*a)
		if err != nil {
			t.Fatal(err)
		}
		if r.Action.Name != a.Name {
			t.Fatalf("ruling echoes %q, want %q", r.Action.Name, a.Name)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("warm-names Evaluate allocs/op = %v, want 0", allocs)
	}
	if n := e.CacheSize(); n != before {
		t.Errorf("fresh names grew the cache from %d to %d entries", before, n)
	}
}

// TestEvaluateDeltaZeroAlloc pins both delta fast paths to zero
// allocations on a warm engine: the dispatch-bitset short-circuit (a
// scalar-field delta the action's bucket provably never reads) and the
// incremental-cache-key slow path (a dimension delta whose target is
// already memoized). A regression on the short-circuit also surfaces
// here as allocations, because the fallback would miss the cache and
// evaluate in full.
func TestEvaluateDeltaZeroAlloc(t *testing.T) {
	base := legal.Action{
		Name:   "delta-alloc",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingStored,
		Data:   legal.DataDeviceContents,
		Source: legal.SourceSeizedDevice,
	}
	escalated := base
	escalated.Data = legal.DataContent
	e := warmedEngine(t, []legal.Action{base, escalated})
	prev, err := e.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}

	var scalar legal.ActionDelta
	scalar.SetFlag(legal.FieldEncrypted, false, true).
		SetFlag(legal.FieldProviderPublic, false, true)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.EvaluateDelta(&prev, scalar); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("short-circuit EvaluateDelta allocs/op = %v, want 0", allocs)
	}

	dim := legal.Diff(&base, &escalated)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.EvaluateDelta(&prev, dim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm-cache EvaluateDelta allocs/op = %v, want 0", allocs)
	}
}

// TestEvaluateBatchWarmAllocs pins the warm batch path: with every
// action memoized and a single worker (no goroutine spawning), the only
// allocations EvaluateBatch may make are the result slices and the
// dedup bookkeeping — the per-action evaluations themselves ride the
// cache and the per-worker scratch.
func TestEvaluateBatchWarmAllocs(t *testing.T) {
	actions := make([]legal.Action, 16)
	for i := range actions {
		actions[i] = legal.Action{
			Name:   "batch-alloc-" + string(rune('a'+i)),
			Actor:  legal.ActorGovernment,
			Timing: legal.TimingStored,
			Data:   legal.DataClass(i%6 + 1),
			Source: legal.SourceSeizedDevice,
		}
	}
	e := legal.NewEngine(legal.WithRulingCache(len(actions)), legal.WithBatchWorkers(1))
	ctx := context.Background()
	if _, err := e.EvaluateBatch(ctx, actions); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.EvaluateBatch(ctx, actions); err != nil {
			t.Fatal(err)
		}
	})
	// rulings + errs + work + the dedup/chain maps and their internals
	// (these actions share six shapes, so the chain pre-pass also
	// builds its shape table); the bound is loose on purpose — the
	// guard is against per-action regressions, which would add
	// ~len(actions) allocations per extra word.
	if allocs > 20 {
		t.Errorf("warm single-worker EvaluateBatch allocs/op = %v, want <= 20", allocs)
	}
}
