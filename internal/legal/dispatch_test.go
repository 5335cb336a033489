package legal

import (
	"context"
	"reflect"
	"testing"
)

// variantsOf builds a spread of actions on one (actor, timing, data,
// source) coordinate: flag combinations, each optional sub-struct, and
// exposure lists, so the dispatch/linear equivalence sweep exercises
// every rule predicate's inputs, not just the four indexed dimensions.
func variantsOf(base Action) []Action {
	vs := make([]Action, 0, 8)
	add := func(mut func(*Action)) {
		a := base
		mut(&a)
		vs = append(vs, a)
	}
	add(func(a *Action) {})
	add(func(a *Action) {
		a.Encrypted = true
		a.PlainView = true
		a.LawfulVantage = true
	})
	add(func(a *Action) {
		a.ProbationSearch = true
		a.SearchBeyondAuthority = true
		a.ProviderRole = ProviderECS
		a.ProviderPublic = true
	})
	add(func(a *Action) {
		a.Consent = &Consent{Scope: ConsentCommunicationParty}
		a.InterceptsThirdParty = true
	})
	add(func(a *Action) {
		a.Consent = &Consent{Scope: ConsentCoUserSharedSpace, ExceedsScope: true}
		a.Exigency = &Exigency{Kind: ExigencyEvidenceDestruction, Approved: true}
	})
	add(func(a *Action) {
		a.Exigency = &Exigency{Kind: ExigencyEmergencyPenTrap, Approved: true}
		a.Exposure = []ExposureFact{ExposureKnowinglyPublic, ExposureDelivered}
	})
	add(func(a *Action) {
		a.Tech = &SpecializedTech{GeneralPublicUse: false, RevealsHomeInterior: true}
		a.Workplace = &WorkplaceSearch{GovernmentEmployer: true, WorkRelated: true, JustifiedAtInception: true, PermissibleScope: true}
	})
	add(func(a *Action) {
		a.ProviderRole = ProviderRCS
		a.ProviderPublic = true
		a.Exposure = []ExposureFact{ExposurePolicyEliminatesREP}
		a.Consent = &Consent{Scope: ConsentProviderToS}
	})
	return vs
}

// TestDispatchMatchesLinearExhaustive proves the compiled dispatch walk
// byte-identical to the naive full-table scan over the exhaustive enum
// sweep times a spread of flag/sub-struct variants, under both
// container doctrines. Consecutive evaluations reuse pooled scratches,
// so a scratch that leaked state from one action into the next would
// diverge here.
func TestDispatchMatchesLinearExhaustive(t *testing.T) {
	for _, doctrine := range []ContainerDoctrine{ContainerPerFile, ContainerSingle} {
		e := NewEngine(WithContainerDoctrine(doctrine))
		checked := 0
		forEachCombo(func(a Actor, tm Timing, d DataClass, s Source) {
			base := Action{Name: "sweep", Actor: a, Timing: tm, Data: d, Source: s}
			for _, v := range variantsOf(base) {
				want := e.evaluateLinear(v)
				if got := e.evaluateDispatch(v); !reflect.DeepEqual(got, want) {
					t.Fatalf("doctrine %v: dispatch diverged from linear for %+v:\n got %+v\nwant %+v",
						doctrine, v, got, want)
				}
				checked++
			}
		})
		if checked == 0 {
			t.Fatal("sweep visited no combinations")
		}
	}
}

// TestDispatchOutOfRangeFallsBackToFullTable pins the bucketFor
// fallback: coordinates outside the enum ranges (which Validate rejects
// before evaluation, but the walk must still be total) use the full
// table and therefore agree with the linear scan.
func TestDispatchOutOfRangeFallsBackToFullTable(t *testing.T) {
	e := NewEngine()
	for _, a := range []Action{
		{Name: "oob", Actor: Actor(99), Timing: TimingStored, Data: DataContent, Source: SourceOwnNetwork},
		{Name: "oob", Actor: ActorGovernment, Timing: Timing(-1), Data: DataContent, Source: SourceOwnNetwork},
	} {
		if got := e.dispatch.bucketFor(&a); !reflect.DeepEqual(got, e.dispatch.all) {
			t.Fatalf("out-of-range action %+v did not fall back to the full table", a)
		}
		if got, want := e.evaluateDispatch(a), e.evaluateLinear(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("out-of-range dispatch diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestDispatchMatchesLinearCustomRules proves that a custom table whose
// rules carry no Match metadata keeps exact linear semantics: every
// zero-Match rule lands in every bucket.
func TestDispatchMatchesLinearCustomRules(t *testing.T) {
	rules := []Rule{
		{
			Name: "custom-realtime",
			When: func(rc *RuleContext) bool { return rc.Action.Timing == TimingRealTime },
			Apply: func(rc *RuleContext) {
				rc.ruling.require(ProcessWiretapOrder, RegimeWiretap, "custom realtime")
			},
			Terminal: true,
		},
		{
			Name: "custom-default",
			Apply: func(rc *RuleContext) {
				rc.ruling.require(ProcessSearchWarrant, RegimeFourthAmendment, "custom default")
			},
			Terminal: true,
		},
	}
	e := NewEngine(WithRules(rules))
	for _, b := range e.dispatch.buckets {
		if len(b) != len(rules) {
			t.Fatalf("zero-Match rules must land in every bucket; got bucket %v", b)
		}
	}
	forEachCombo(func(a Actor, tm Timing, d DataClass, s Source) {
		v := Action{Name: "custom", Actor: a, Timing: tm, Data: d, Source: s}
		if got, want := e.evaluateDispatch(v), e.evaluateLinear(v); !reflect.DeepEqual(got, want) {
			t.Fatalf("custom-table dispatch diverged for %+v:\n got %+v\nwant %+v", v, got, want)
		}
	})
}

// TestDispatchSelectivity asserts the point of compiling the table:
// every bucket of the default table is strictly smaller than the table,
// so no action ever pays the full linear scan.
func TestDispatchSelectivity(t *testing.T) {
	e := NewEngine()
	total := len(e.rules)
	max := 0
	for i, b := range e.dispatch.buckets {
		if len(b) >= total {
			t.Errorf("bucket %d holds %d of %d rules; dispatch gains nothing there", i, len(b), total)
		}
		if len(b) > max {
			max = len(b)
		}
	}
	if max == 0 {
		t.Fatal("dispatch index has no populated buckets")
	}
	t.Logf("rule table %d, widest bucket %d", total, max)
}

// TestPackActionExactness pins the packed-word verifier's contract:
// every valid action packs exactly (so cache verification may compare
// packed words), any out-of-range field forces the inexact sentinel
// (so verification falls back to the full structural compare), and the
// packing is injective across single-field scalar perturbations.
func TestPackActionExactness(t *testing.T) {
	forEachCombo(func(a Actor, tm Timing, d DataClass, s Source) {
		v := Action{Name: "pack", Actor: a, Timing: tm, Data: d, Source: s}
		for _, va := range variantsOf(v) {
			if w, exact := packAction(&va); !exact || w == wInexact {
				t.Fatalf("valid action packed inexactly: %+v", va)
			}
		}
	})

	base := Action{Name: "pack", Actor: ActorGovernment, Timing: TimingStored, Data: DataContent, Source: SourceSeizedDevice}
	for _, mut := range []func(*Action){
		func(a *Action) { a.Actor = Actor(8) },
		func(a *Action) { a.Actor = Actor(-1) },
		func(a *Action) { a.Timing = Timing(4) },
		func(a *Action) { a.Data = DataClass(8) },
		func(a *Action) { a.Source = Source(16) },
		func(a *Action) { a.ProviderRole = ProviderRole(16) },
		func(a *Action) { a.Consent = &Consent{Scope: ConsentScope(16)} },
		func(a *Action) { a.Exigency = &Exigency{Kind: ExigencyKind(8)} },
	} {
		a := base
		mut(&a)
		if w, exact := packAction(&a); exact || w != wInexact {
			t.Fatalf("out-of-range action packed exactly: %+v", a)
		}
	}

	// Injectivity across single-field flips of a fully loaded action.
	full := base
	full.Consent = &Consent{Scope: ConsentSpouse}
	full.Exigency = &Exigency{Kind: ExigencyDanger}
	full.Tech = &SpecializedTech{}
	full.Workplace = &WorkplaceSearch{}
	w0, exact := packAction(&full)
	if !exact {
		t.Fatalf("fully loaded valid action packed inexactly: %+v", full)
	}
	for i, mut := range []func(*Action){
		func(a *Action) { a.Actor = ActorPrivate },
		func(a *Action) { a.Timing = TimingRealTime },
		func(a *Action) { a.Data = DataAddressing },
		func(a *Action) { a.Source = SourceOwnNetwork },
		func(a *Action) { a.Encrypted = true },
		func(a *Action) { a.PlainView = true },
		func(a *Action) { a.ProviderRole = ProviderECS },
		func(a *Action) { a.Consent.Scope = ConsentParentMinor },
		func(a *Action) { a.Consent = nil },
		func(a *Action) { a.Exigency.Approved = true },
		func(a *Action) { a.Tech.RevealsHomeInterior = true },
		func(a *Action) { a.Workplace.PermissibleScope = true },
	} {
		a := full
		if a.Consent != nil {
			c := *full.Consent
			a.Consent = &c
		}
		if a.Exigency != nil {
			x := *full.Exigency
			a.Exigency = &x
		}
		if a.Tech != nil {
			te := *full.Tech
			a.Tech = &te
		}
		if a.Workplace != nil {
			wp := *full.Workplace
			a.Workplace = &wp
		}
		mut(&a)
		if w, _ := packAction(&a); w == w0 {
			t.Fatalf("perturbation %d did not change the packed word: %+v", i, a)
		}
	}
}

// TestBatchDedupOrder is the regression test for within-batch
// deduplication: duplicate slots must receive the first occurrence's
// ruling at their original indices, errors included, and the dedup
// counter must account for every coalesced slot.
func TestBatchDedupOrder(t *testing.T) {
	e := NewEngine(WithEngineStats())
	mk := func(name string, d DataClass) Action {
		return Action{Name: name, Actor: ActorGovernment, Timing: TimingStored, Data: d, Source: SourceSeizedDevice}
	}
	a := mk("alpha", DataContent)
	b := mk("bravo", DataDeviceContents)
	bad := Action{Name: "bad", Actor: Actor(99), Timing: TimingStored, Data: DataContent, Source: SourceSeizedDevice}
	batch := []Action{a, b, a, bad, b, a, bad}

	rulings, err := e.EvaluateBatch(context.Background(), batch)
	if err == nil {
		t.Fatal("expected an error for the invalid slots")
	}
	if len(rulings) != len(batch) {
		t.Fatalf("got %d rulings for %d actions", len(rulings), len(batch))
	}
	for i, r := range rulings {
		if batch[i].Actor == Actor(99) {
			if r.Regime != 0 {
				t.Fatalf("invalid slot %d received a ruling: %+v", i, r)
			}
			continue
		}
		if r.Action.Name != batch[i].Name {
			t.Fatalf("slot %d holds ruling for %q, want %q", i, r.Action.Name, batch[i].Name)
		}
	}
	for _, pair := range [][2]int{{0, 2}, {0, 5}, {1, 4}} {
		if !reflect.DeepEqual(rulings[pair[0]], rulings[pair[1]]) {
			t.Fatalf("duplicate slots %v diverged:\n%+v\n%+v", pair, rulings[pair[0]], rulings[pair[1]])
		}
	}
	// alpha ×2 extra, bravo ×1 extra, bad ×1 extra.
	if got := e.Stats().BatchDeduped; got != 4 {
		t.Fatalf("BatchDeduped = %d, want 4", got)
	}
	// Three unique actions evaluated, one of them invalid.
	s := e.Stats()
	if s.Evaluations != 3 || s.InvalidActions != 1 {
		t.Fatalf("stats after batch = %+v, want 3 evaluations / 1 invalid", s)
	}
}

// TestCacheCapacityEviction exercises the generational flush: a bounded
// cache must stay within capacity, count its evictions, and keep
// returning correct rulings for re-evaluated (evicted) actions.
func TestCacheCapacityEviction(t *testing.T) {
	const capacity = 4
	e := NewEngine(WithRulingCacheCapacity(capacity), WithEngineStats())
	ref := NewEngine()
	actions := make([]Action, 10)
	for i := range actions {
		actions[i] = Action{
			Name:   "evict-" + string(rune('a'+i)),
			Actor:  ActorGovernment,
			Timing: TimingStored,
			Data:   DataClass(i%int(DataPublic) + 1),
			Source: SourceSeizedDevice,
		}
	}
	for round := 0; round < 3; round++ {
		for _, a := range actions {
			got, err := e.Evaluate(a)
			if err != nil {
				t.Fatal(err)
			}
			want, err := ref.Evaluate(a)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("bounded-cache ruling diverged for %q:\n got %+v\nwant %+v", a.Name, got, want)
			}
		}
	}
	s := e.Stats()
	if s.CacheSize > capacity {
		t.Fatalf("cache size %d exceeds capacity %d", s.CacheSize, capacity)
	}
	if s.CacheEvictions == 0 {
		t.Fatal("bounded cache over 3×10 distinct evaluations recorded no evictions")
	}
	if s.CacheMisses <= uint64(len(actions)) {
		t.Fatalf("expected re-misses after eviction, got %d misses", s.CacheMisses)
	}
}

// evaluateLinear is the naive reference walk: the full rule table, in
// order, with no dispatch index and no scratch reuse. It is the
// semantics the compiled dispatch must reproduce byte-for-byte; the
// equivalence tests in dispatch_test.go and FuzzEvaluate hold
// evaluateDispatch to it.
func (e *Engine) evaluateLinear(a Action) Ruling {
	r := Ruling{Action: a}
	rc := &RuleContext{engine: e, Action: &a, ruling: &r}
	for i := range e.rules {
		rule := &e.rules[i]
		if rule.When != nil && !rule.When(rc) {
			continue
		}
		if rule.Apply != nil {
			rule.Apply(rc)
		}
		r.cite(rule.Citations...)
		r.Applied = append(r.Applied, rule.Name)
		if rule.Terminal {
			break
		}
	}
	return r
}

// TestPanickingRuleLeavesNoScratchState proves every evaluation starts
// from a clean scratch: after a rule that had already required and
// noted panics out of Evaluate and the caller recovers, and after each
// evaluation leaves its ruling's slices in a pooled scratch, every
// ruling the engine gives is the one a fresh engine's reference walk
// gives.
func TestPanickingRuleLeavesNoScratchState(t *testing.T) {
	rules := []Rule{
		{
			Name: "boom",
			When: func(rc *RuleContext) bool { return rc.Action.Name == "boom" },
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessWiretapOrder, RegimeWiretap, "boom requires")
				rc.Note("boom notes")
				panic("boom")
			},
		},
		{
			Name: "realtime",
			When: func(rc *RuleContext) bool { return rc.Action.Timing == TimingRealTime },
			Apply: func(rc *RuleContext) {
				rc.Require(ProcessCourtOrder, RegimePenTrap, "realtime requires")
				rc.Except(ExceptionProviderProtection, "realtime excepts")
			},
			Citations: []string{"Title3"},
			Terminal:  true,
		},
		{
			// Requires nothing, so a leftover requirement shows.
			Name:     "default",
			Apply:    func(rc *RuleContext) { rc.Note("default notes") },
			Terminal: true,
		},
	}
	stored := Action{Name: "next", Actor: ActorGovernment, Timing: TimingStored, Data: DataContent, Source: SourceProviderStored}
	realtime := stored
	realtime.Name, realtime.Timing = "earlier", TimingRealTime
	boom := realtime
	boom.Name = "boom"

	e := NewEngine(WithRules(rules))
	fresh := NewEngine(WithRules(rules))
	check := func(a Action) {
		t.Helper()
		got, err := e.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		// The reference walk builds its ruling without a scratch; the
		// pool is shared by every engine.
		if want := fresh.evaluateLinear(a); !reflect.DeepEqual(got, want) {
			t.Fatalf("ruling carries earlier state:\n got %+v\nwant %+v", got, want)
		}
	}
	check(realtime)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("the boom rule did not panic")
			}
		}()
		_, _ = e.Evaluate(boom)
	}()
	check(realtime)
	check(stored)
}
