// Tests for the name-blind ruling-cache key: in dispatch buckets whose
// rules never read Name, the cache keys an action by its legal shape
// alone and re-labels the memoized ruling with the caller's name.
package legal_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"lawgate/internal/legal"
)

// randomValidAction draws an action with every field in range: random
// dispatch coordinates, flags, optional sub-structs and exposure facts.
func randomValidAction(rng *rand.Rand) legal.Action {
	a := legal.Action{
		Actor:                 legal.Actor(1 + rng.Intn(int(legal.ActorProvider))),
		Timing:                legal.Timing(1 + rng.Intn(int(legal.TimingStored))),
		Data:                  legal.DataClass(1 + rng.Intn(int(legal.DataDeviceContents))),
		Source:                legal.Source(1 + rng.Intn(int(legal.SourceTargetDevice))),
		Encrypted:             rng.Intn(2) == 0,
		PlainView:             rng.Intn(4) == 0,
		LawfulVantage:         rng.Intn(4) == 0,
		ProbationSearch:       rng.Intn(8) == 0,
		ProviderRole:          legal.ProviderRole(rng.Intn(int(legal.ProviderRCS) + 1)),
		ProviderPublic:        rng.Intn(2) == 0,
		InterceptsThirdParty:  rng.Intn(4) == 0,
		SearchBeyondAuthority: rng.Intn(4) == 0,
	}
	for n := rng.Intn(3); n > 0; n-- {
		a.Exposure = append(a.Exposure, legal.ExposureFact(1+rng.Intn(int(legal.ExposureAbandoned))))
	}
	if rng.Intn(3) == 0 {
		a.Consent = &legal.Consent{
			Scope:              legal.ConsentScope(1 + rng.Intn(int(legal.ConsentVictimTrespasser))),
			Revoked:            rng.Intn(4) == 0,
			ExceedsScope:       rng.Intn(4) == 0,
			AllPartiesRequired: rng.Intn(4) == 0,
		}
	}
	if rng.Intn(4) == 0 {
		a.Exigency = &legal.Exigency{
			Kind:     legal.ExigencyKind(1 + rng.Intn(int(legal.ExigencyEmergencyPenTrap))),
			Approved: rng.Intn(2) == 0,
		}
	}
	if rng.Intn(5) == 0 {
		a.Tech = &legal.SpecializedTech{GeneralPublicUse: rng.Intn(2) == 0, RevealsHomeInterior: rng.Intn(2) == 0}
	}
	if rng.Intn(5) == 0 {
		a.Workplace = &legal.WorkplaceSearch{
			GovernmentEmployer:   rng.Intn(2) == 0,
			WorkRelated:          rng.Intn(2) == 0,
			JustifiedAtInception: rng.Intn(2) == 0,
			PermissibleScope:     rng.Intn(2) == 0,
		}
	}
	return a
}

// sameRuling fails the test unless got and want are deeply equal and
// encode to the same JSON bytes.
func sameRuling(t *testing.T, got, want legal.Ruling) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("cached ruling diverged:\n got %+v\nwant %+v", got, want)
	}
	gb, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if string(gb) != string(wb) {
		t.Fatalf("cached ruling bytes diverged:\n got %s\nwant %s", gb, wb)
	}
}

// TestNameBlindCacheMatchesUncached: for random valid actions, each
// evaluated under many fresh names (empty, short, and longer than the
// sampled name hash covers), a cached engine returns exactly what a
// cache-less engine returns, including the echoed action.
func TestNameBlindCacheMatchesUncached(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	plain := legal.NewEngine()
	cached := legal.NewEngine(legal.WithRulingCache(0))
	shapes := make(map[string]bool)
	for i := 0; i < 400; i++ {
		a := randomValidAction(rng)
		a.Name = ""
		shapes[a.Fingerprint()] = true
		for j := 0; j < 25; j++ {
			switch j {
			case 0:
				a.Name = ""
			case 1:
				a.Name = fmt.Sprintf("n%d", i)
			default:
				a.Name = fmt.Sprintf("case %d/%d: a sentence-length label the hash samples", i, j)
			}
			want, err := plain.Evaluate(a)
			if err != nil {
				t.Fatal(err)
			}
			got, err := cached.Evaluate(a)
			if err != nil {
				t.Fatal(err)
			}
			sameRuling(t, got, want)
		}
	}
	if n := cached.CacheSize(); n != len(shapes) {
		t.Fatalf("CacheSize = %d, want one entry per shape (%d)", n, len(shapes))
	}
}

// namedRuleTables returns rule tables in which every bucket reads Name:
// one annotated with FieldName, one left unannotated (nil Reads, which
// the engine widens to every field).
func namedRuleTables() map[string][]legal.Rule {
	named := func(reads []legal.Field) []legal.Rule {
		return []legal.Rule{
			{
				Name: "named-warrant",
				When: func(rc *legal.RuleContext) bool { return len(rc.Action.Name) > 0 && rc.Action.Name[0] == 'W' },
				Apply: func(rc *legal.RuleContext) {
					rc.Require(legal.ProcessSearchWarrant, legal.RegimeFourthAmendment, "named warrant")
				},
				Terminal: true,
				Match:    legal.RuleMatch{Reads: reads},
			},
			{
				Name:     "default-none",
				Apply:    func(rc *legal.RuleContext) { rc.Require(legal.ProcessNone, legal.RegimeNone, "default none") },
				Terminal: true,
				Match:    legal.RuleMatch{Reads: []legal.Field{}},
			},
		}
	}
	return map[string][]legal.Rule{
		"reads-name":  named([]legal.Field{legal.FieldName}),
		"unannotated": named(nil),
	}
}

// TestNameReadingBucketsKeyByName: where a bucket's rules read Name —
// declared, or assumed for unannotated rules — the cache keeps the name
// in the key, so its size grows with the number of names and each name
// gets its own ruling, even when the names' hashes collide.
func TestNameReadingBucketsKeyByName(t *testing.T) {
	for label, rules := range namedRuleTables() {
		t.Run(label, func(t *testing.T) {
			plain := legal.NewEngine(legal.WithRules(rules))
			cached := legal.NewEngine(legal.WithRules(rules), legal.WithRulingCache(0))
			a := legal.Action{Actor: legal.ActorGovernment, Timing: legal.TimingStored,
				Data: legal.DataContent, Source: legal.SourceSeizedDevice}
			const names = 50
			for round := 0; round < 2; round++ {
				for i := 0; i < names; i++ {
					// Same length, first and last eight bytes within
					// each half: the sampled name hash collides, so
					// only verification tells the names apart.
					a.Name = fmt.Sprintf("case: middle %03d differs", i)
					if i%2 == 0 {
						a.Name = fmt.Sprintf("Wcase: middle %03d differs", i)
					}
					want, err := plain.Evaluate(a)
					if err != nil {
						t.Fatal(err)
					}
					got, err := cached.Evaluate(a)
					if err != nil {
						t.Fatal(err)
					}
					sameRuling(t, got, want)
				}
			}
			if n := cached.CacheSize(); n != names {
				t.Fatalf("CacheSize = %d, want %d (one per name)", n, names)
			}
		})
	}

	// The choice is per bucket: a Name-reading rule confined to private
	// actors leaves government buckets name-blind.
	rules := namedRuleTables()["reads-name"]
	rules[0].Match.Actors = []legal.Actor{legal.ActorPrivate}
	e := legal.NewEngine(legal.WithRules(rules), legal.WithRulingCache(0))
	for i := 0; i < 10; i++ {
		for _, actor := range []legal.Actor{legal.ActorGovernment, legal.ActorPrivate} {
			a := legal.Action{Name: fmt.Sprintf("W%d", i), Actor: actor, Timing: legal.TimingStored,
				Data: legal.DataContent, Source: legal.SourceSeizedDevice}
			if _, err := e.Evaluate(a); err != nil {
				t.Fatal(err)
			}
		}
	}
	if n := e.CacheSize(); n != 10+1 {
		t.Fatalf("mixed table CacheSize = %d, want 11 (10 private names + 1 government shape)", n)
	}
}

// TestNameBlindCacheSizeIsShapeCount: ten thousand case names over the
// Table 1 shapes memoize exactly one ruling per distinct shape, and each
// ruling still echoes its own name.
func TestNameBlindCacheSizeIsShapeCount(t *testing.T) {
	base := table1Actions()
	shapes := make(map[string]bool)
	for _, a := range base {
		a.Name = ""
		shapes[a.Fingerprint()] = true
	}
	e := legal.NewEngine(legal.WithRulingCache(0))
	for i, a := range distinctActions(10000) {
		r, err := e.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if r.Action.Name != a.Name {
			t.Fatalf("action %d: ruling echoes %q, want %q", i, r.Action.Name, a.Name)
		}
	}
	if n := e.CacheSize(); n != len(shapes) {
		t.Fatalf("CacheSize = %d, want %d shapes", n, len(shapes))
	}
}

// TestNameBlindCacheKeepsValidation: an invalid action that differs
// from a memoized one only in an out-of-range field — whether the field
// still packs exactly or not, and under the cached name, a fresh one or
// none — gets the same validation error as on a cache-less engine.
func TestNameBlindCacheKeepsValidation(t *testing.T) {
	valid := legal.Action{
		Name:         "cached",
		Actor:        legal.ActorGovernment,
		Timing:       legal.TimingStored,
		Data:         legal.DataContent,
		Source:       legal.SourceProviderStored,
		ProviderRole: legal.ProviderECS,
		Consent:      &legal.Consent{Scope: legal.ConsentOwnData},
		Exigency:     &legal.Exigency{Kind: legal.ExigencyDanger},
		Exposure:     []legal.ExposureFact{legal.ExposureDelivered},
	}
	muts := map[string]func(*legal.Action){
		"actor-0":         func(a *legal.Action) { a.Actor = 0 },
		"actor-99":        func(a *legal.Action) { a.Actor = 99 },
		"timing-3":        func(a *legal.Action) { a.Timing = 3 },
		"data-7":          func(a *legal.Action) { a.Data = 7 },
		"source-10":       func(a *legal.Action) { a.Source = 10 },
		"provider-role-7": func(a *legal.Action) { a.ProviderRole = 7 },
		"provider-role-99": func(a *legal.Action) {
			a.ProviderRole = 99
		},
		"consent-0":  func(a *legal.Action) { a.Consent = &legal.Consent{Scope: 0} },
		"consent-99": func(a *legal.Action) { a.Consent = &legal.Consent{Scope: 99} },
		"exigency-0": func(a *legal.Action) { a.Exigency = &legal.Exigency{Kind: 0} },
		"exposure-0": func(a *legal.Action) { a.Exposure = []legal.ExposureFact{0} },
		"exposure-99": func(a *legal.Action) {
			a.Exposure = []legal.ExposureFact{99}
		},
	}
	plain := legal.NewEngine()
	cached := legal.NewEngine(legal.WithRulingCache(0))
	if _, err := cached.Evaluate(valid); err != nil {
		t.Fatal(err)
	}
	for label, mut := range muts {
		for _, name := range []string{valid.Name, "fresh", ""} {
			a := valid
			a.Name = name
			mut(&a)
			_, want := plain.Evaluate(a)
			if want == nil {
				t.Fatalf("%s: mutation left the action valid", label)
			}
			_, got := cached.Evaluate(a)
			if got == nil || got.Error() != want.Error() {
				t.Fatalf("%s name %q: cached engine returned %v, want %v", label, name, got, want)
			}
		}
	}
	if n := cached.CacheSize(); n != 1 {
		t.Fatalf("CacheSize = %d after invalid probes, want 1", n)
	}
}

// TestNameBlindCacheConcurrentNames: concurrent hits on one memoized
// entry under different names each get their own name back (run under
// -race by scripts/ci.sh).
func TestNameBlindCacheConcurrentNames(t *testing.T) {
	base := table1Actions()
	e := legal.NewEngine(legal.WithRulingCache(0))
	if _, err := e.Evaluate(base[0]); err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			a := base[0]
			a.Name = fmt.Sprintf("worker-%d", g)
			for i := 0; i < 2000; i++ {
				r, err := e.Evaluate(a)
				if err != nil {
					errs <- err
					return
				}
				if r.Action.Name != a.Name {
					errs <- fmt.Errorf("goroutine %d got name %q", g, r.Action.Name)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if n := e.CacheSize(); n != 1 {
		t.Fatalf("CacheSize = %d, want 1", n)
	}
}
