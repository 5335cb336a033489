// Allocation-regression guards for the evaluation hot path. The
// zero-allocation warm-cache Evaluate is a measured performance win
// (see BENCH_legal.json); these tests pin it so a later refactor cannot
// silently rot it back, the way internal/netsim/alloc_test.go pins the
// simulator's event slab.
package legal_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"lawgate/internal/legal"
	"lawgate/internal/scenario"
)

// The exact allocation counts of the warm batch paths below. A batch
// keys its slots in the table of a pooled evaluation scratch, so it
// pays nothing for it. The 16-slot EvaluateBatch allocates its rulings
// and errs slices; the 256-slot EvaluateBatchInto, writing into the
// caller's slices, allocates nothing.
//
// Under the race detector sync.Pool drops Puts at random, so a batch
// may draw a fresh scratch and make its table: one evalScratch plus the
// map's three allocations. The race bounds are those worst cases.
const (
	warmBatchAllocs   = 2
	servedBatchAllocs = 0

	warmBatchAllocsRace   = warmBatchAllocs + 4
	servedBatchAllocsRace = servedBatchAllocs + 4
)

// checkBatchAllocs holds a batch path's allocs/op to want exactly, or,
// under the race detector, to at most raceMax.
func checkBatchAllocs(t *testing.T, what string, got float64, want, raceMax int) {
	t.Helper()
	switch {
	case raceEnabled && got > float64(raceMax):
		t.Errorf("%s allocs/op = %v under the race detector, want at most %d", what, got, raceMax)
	case !raceEnabled && got != float64(want):
		t.Errorf("%s allocs/op = %v, want %d", what, got, want)
	}
}

// coldTable1Allocs is the exact allocation count of one uncached
// Evaluate of each of the twenty Table 1 scenes: one exact-size copy
// per non-empty ruling slice, plus what the privacy analysis (the REP
// finding and its growing reason and citation slices) allocates in the
// three scenes that reach it. BenchmarkRulingsPerSec/cold
// reports it per evaluation, rounded down: 4.
const coldTable1Allocs = 82

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

// TestEvaluateDeltaZeroAlloc pins EvaluateDelta to zero allocations on
// a warm cached engine, for a scalar-flag delta and for a dimension
// delta: each applies the delta to a copy of the prior action and takes
// the same name-blind cache hit Evaluate does.
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
		t.Errorf("scalar-delta EvaluateDelta allocs/op = %v, want 0", allocs)
	}

	dim := legal.Diff(&base, &escalated)
	if allocs := testing.AllocsPerRun(1000, func() {
		if _, err := e.EvaluateDelta(&prev, dim); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("dimension-delta EvaluateDelta allocs/op = %v, want 0", allocs)
	}
}

// TestEvaluateColdAllocs pins the miss path: an uncached engine walks
// each action's bucket on a pooled scratch and allocates only the
// ruling it returns. A ruling without a REP finding costs exactly one
// allocation per non-empty slice.
func TestEvaluateColdAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector; AllocsPerRun is meaningless here")
	}
	e := legal.NewEngine()
	actions := table1Actions()
	for _, a := range actions {
		r, err := e.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if r.Privacy != nil {
			continue
		}
		want := 0
		for _, n := range []int{len(r.Exceptions), len(r.Rationale), len(r.Citations), len(r.Applied)} {
			if n > 0 {
				want++
			}
		}
		if got := testing.AllocsPerRun(100, func() {
			if _, err := e.Evaluate(a); err != nil {
				t.Fatal(err)
			}
		}); got != float64(want) {
			t.Errorf("cold Evaluate(%s) allocs/op = %v, want %d", a.Name, got, want)
		}
	}
	if got := testing.AllocsPerRun(100, func() {
		for _, a := range actions {
			if _, err := e.Evaluate(a); err != nil {
				t.Fatal(err)
			}
		}
	}); got != coldTable1Allocs {
		t.Errorf("cold Table 1 Evaluate allocs/op = %v, want %d", got, coldTable1Allocs)
	}
}

// TestEvaluateBatchWarmAllocs pins the warm batch path: with every
// action memoized, the only allocations EvaluateBatch may make are its
// two result slices — the per-action evaluations themselves ride the
// cache.
// A per-action regression would add ~len(actions) allocations.
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
	e := legal.NewEngine(legal.WithRulingCache(len(actions)))
	ctx := context.Background()
	if _, err := e.EvaluateBatch(ctx, actions); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.EvaluateBatch(ctx, actions); err != nil {
			t.Fatal(err)
		}
	})
	checkBatchAllocs(t, "warm EvaluateBatch", allocs, warmBatchAllocs, warmBatchAllocsRace)
}

// TestEvaluateBatchIntoAllocs pins the served batch shape: a warm
// cached engine evaluating a 256-slot batch of Table 1 scenes under
// many case names, with repeats and Encrypted variants, into reused
// caller-owned slices. It allocates nothing.
func TestEvaluateBatchIntoAllocs(t *testing.T) {
	scenes := scenario.Table1()
	r := rand.New(rand.NewSource(1))
	var actions []legal.Action
	for i := 0; i < 192; i++ {
		a := scenes[r.Intn(len(scenes))].Action
		a.Name = fmt.Sprintf("case-%06d", r.Intn(200_000))
		actions = append(actions, a)
	}
	for i := 0; i < 32; i++ {
		actions = append(actions, actions[r.Intn(192)])
	}
	for i := 0; i < 32; i++ {
		a := actions[r.Intn(192)]
		a.Encrypted = !a.Encrypted
		actions = append(actions, a)
	}
	r.Shuffle(len(actions), func(i, j int) { actions[i], actions[j] = actions[j], actions[i] })

	e := legal.NewEngine(legal.WithRulingCache(0))
	ctx := context.Background()
	rulings, errs := make([]legal.Ruling, len(actions)), make([]error, len(actions))
	if err := e.EvaluateBatchInto(ctx, actions, rulings, errs); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if err := e.EvaluateBatchInto(ctx, actions, rulings, errs); err != nil {
			t.Fatal(err)
		}
	})
	checkBatchAllocs(t, "warm 256-slot EvaluateBatchInto", allocs, servedBatchAllocs, servedBatchAllocsRace)
}
