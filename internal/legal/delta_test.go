package legal

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// deltaMuts is the catalog of mutations the delta tests drive: every
// scalar flag, each optional sub-struct (set, modify, clear), the
// exposure sequence, the name, each dispatch dimension, a multi-field
// combination, and two out-of-range writes that must surface as
// validation errors through the delta path exactly as through Evaluate.
var deltaMuts = []struct {
	name string
	mut  func(*Action)
}{
	{"name", func(a *Action) { a.Name += "+delta" }},
	{"encrypted", func(a *Action) { a.Encrypted = !a.Encrypted }},
	{"scalar2", func(a *Action) { a.Encrypted = !a.Encrypted; a.ProviderPublic = !a.ProviderPublic }},
	{"plain-view", func(a *Action) { a.PlainView = !a.PlainView; a.LawfulVantage = !a.LawfulVantage }},
	{"probation", func(a *Action) { a.ProbationSearch = !a.ProbationSearch }},
	{"beyond-authority", func(a *Action) { a.SearchBeyondAuthority = !a.SearchBeyondAuthority }},
	{"intercepts", func(a *Action) { a.InterceptsThirdParty = !a.InterceptsThirdParty }},
	{"provider-role", func(a *Action) { a.ProviderRole = (a.ProviderRole + 1) % ProviderRole(len(providerRoleNames)+1) }},
	{"consent-toggle", func(a *Action) {
		if a.Consent != nil {
			a.Consent = nil
		} else {
			a.Consent = &Consent{Scope: ConsentCommunicationParty}
		}
	}},
	{"consent-revoke", func(a *Action) {
		c := Consent{Scope: ConsentOwnData, Revoked: true}
		if a.Consent != nil {
			c = *a.Consent
			c.Revoked = !c.Revoked
		}
		a.Consent = &c
	}},
	{"exigency-toggle", func(a *Action) {
		if a.Exigency != nil {
			a.Exigency = nil
		} else {
			a.Exigency = &Exigency{Kind: ExigencyDanger, Approved: true}
		}
	}},
	{"tech-toggle", func(a *Action) {
		if a.Tech != nil {
			a.Tech = nil
		} else {
			a.Tech = &SpecializedTech{RevealsHomeInterior: true}
		}
	}},
	{"workplace-toggle", func(a *Action) {
		if a.Workplace != nil {
			a.Workplace = nil
		} else {
			a.Workplace = &WorkplaceSearch{GovernmentEmployer: true, WorkRelated: true}
		}
	}},
	{"exposure", func(a *Action) {
		if len(a.Exposure) > 0 {
			a.Exposure = nil
		} else {
			a.Exposure = []ExposureFact{ExposureDelivered}
		}
	}},
	{"dim-data", func(a *Action) { a.Data = a.Data%DataClass(numData) + 1 }},
	{"dim-timing", func(a *Action) { a.Timing = a.Timing%Timing(numTimings) + 1 }},
	{"dim-actor", func(a *Action) { a.Actor = a.Actor%Actor(numActors) + 1 }},
	{"dim-source", func(a *Action) { a.Source = a.Source%Source(numSources) + 1 }},
	{"multi", func(a *Action) {
		a.Data = a.Data%DataClass(numData) + 1
		a.Encrypted = !a.Encrypted
		a.Name += "+multi"
	}},
	{"invalid-actor", func(a *Action) { a.Actor = Actor(99) }},
	{"invalid-consent", func(a *Action) { a.Consent = &Consent{Scope: ConsentScope(99)} }},
}

// TestDeltaMatchesFullEvaluate is the equivalence sweep: across all
// 432 dispatch combos × the standard variant spread × every delta
// mutation, under both container doctrines, EvaluateDelta on a cached
// engine must return exactly what a fresh full Evaluate of the rebuilt
// action returns on an uncached one — rulings deeply equal, errors
// identical.
func TestDeltaMatchesFullEvaluate(t *testing.T) {
	for _, doctrine := range []ContainerDoctrine{ContainerPerFile, ContainerSingle} {
		e := NewEngine(WithContainerDoctrine(doctrine), WithRulingCache(0), WithEngineStats())
		ref := NewEngine(WithContainerDoctrine(doctrine))
		checked := 0
		forEachCombo(func(ac Actor, tm Timing, dc DataClass, s Source) {
			base := Action{Name: "delta-sweep", Actor: ac, Timing: tm, Data: dc, Source: s}
			for _, v := range variantsOf(base) {
				prev, err := e.Evaluate(v)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range deltaMuts {
					target := v
					m.mut(&target)
					d := Diff(&v, &target)
					got, gerr := e.EvaluateDelta(&prev, d)
					want, werr := ref.Evaluate(target)
					if (gerr == nil) != (werr == nil) ||
						(gerr != nil && gerr.Error() != werr.Error()) {
						t.Fatalf("doctrine %v, mutation %q: delta error %v, full error %v (base %+v)",
							doctrine, m.name, gerr, werr, v)
					}
					if werr == nil && !reflect.DeepEqual(got, want) {
						t.Fatalf("doctrine %v, mutation %q: EvaluateDelta diverged from Evaluate:\n got %+v\nwant %+v\nbase %+v",
							doctrine, m.name, got, want, v)
					}
					checked++
				}
			}
		})
		if checked == 0 {
			t.Fatal("sweep visited no combinations")
		}
		if s := e.Stats(); s.DeltaEvaluations != uint64(checked) {
			t.Fatalf("doctrine %v: DeltaEvaluations = %d, want %d", doctrine, s.DeltaEvaluations, checked)
		}
	}
}

// TestDeltaRoundTrip is the satellite property test: any sequence of
// Diff-built deltas applied in order and un-applied in reverse restores
// the original action byte-for-byte — fingerprint equality and deep
// structural equality — and each forward application lands exactly on
// the mutated target.
func TestDeltaRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var bases []Action
	forEachCombo(func(ac Actor, tm Timing, dc DataClass, s Source) {
		bases = append(bases, variantsOf(Action{Name: "round-trip", Actor: ac, Timing: tm, Data: dc, Source: s})...)
	})
	for iter := 0; iter < 500; iter++ {
		orig := bases[rng.Intn(len(bases))]
		origFP := orig.Fingerprint()
		cur := orig
		var seq []ActionDelta
		for k := 1 + rng.Intn(5); k > 0; k-- {
			target := cur
			m := deltaMuts[rng.Intn(len(deltaMuts))]
			m.mut(&target)
			d := Diff(&cur, &target)
			d.Apply(&cur)
			if got, want := cur.Fingerprint(), target.Fingerprint(); got != want {
				t.Fatalf("iter %d: applying %q diverged from the mutated target:\n got %s\nwant %s", iter, m.name, got, want)
			}
			seq = append(seq, d)
		}
		for i := len(seq) - 1; i >= 0; i-- {
			seq[i].Unapply(&cur)
		}
		if fp := cur.Fingerprint(); fp != origFP {
			t.Fatalf("iter %d: unapply did not restore the original:\n got %s\nwant %s", iter, fp, origFP)
		}
		if !reflect.DeepEqual(cur, orig) {
			t.Fatalf("iter %d: unapply restored an unequal action:\n got %+v\nwant %+v", iter, cur, orig)
		}
	}
}

// TestBatchDeltaChainWorkersIdentity is the byte-identity test for the
// batch's keyed pass: rulings and the joined error text must equal
// per-action evaluation on a reference engine, cached and not, and the
// counters must account for every
// slot once — an evaluation, a same-name repeat (BatchDeduped), or a
// slot answered under another name (BatchDeltaChained). The batch holds
// name-only variants of 16 shapes, exact repeats of bases and of
// re-labeled variants, and an invalid base with name-only variants of
// it; a second batch runs on an engine whose unannotated rules read
// Name, where only exact repeats may be answered.
func TestBatchDeltaChainWorkersIdentity(t *testing.T) {
	const n, shapes = 512, 16
	shaped := make([]Action, shapes)
	for i := range shaped {
		a := Action{
			Name:   "shape",
			Actor:  ActorGovernment,
			Timing: TimingStored,
			Data:   DataClass(i%numData + 1),
			Source: SourceSeizedDevice,
		}
		if (i/numData)%2 == 1 {
			a.Consent = &Consent{Scope: ConsentOwnData}
		}
		if i/(2*numData) == 1 {
			a.Encrypted = true
		}
		shaped[i] = a
	}
	actions := make([]Action, n)
	for i := range actions {
		actions[i] = shaped[i%shapes]
		actions[i].Name = fmt.Sprintf("chain-%d", i)
	}
	// Exact repeats: 4 of bases (same name as their answering slot), 32
	// of re-labeled variants (answered by the base, another name).
	actions = append(actions, actions[:4]...)
	actions = append(actions, actions[shapes:shapes+32]...)
	// An invalid base (the scope packs exactly but fails Validate), 3
	// name-only variants and an exact repeat of each of the two kinds:
	// the base repeat copies the base's error, every variant is
	// evaluated itself so its error names its own slot.
	bad := shaped[0]
	bad.Name = "bad-base"
	bad.Consent = &Consent{Scope: ConsentScope(15)}
	badFrom := len(actions)
	for _, name := range []string{"bad-base", "bad-1", "bad-2", "bad-3", "bad-base", "bad-2"} {
		b := bad
		b.Name = name
		actions = append(actions, b)
	}
	checkBatchIdentity(t, "name-blind", nil, actions, badFrom, shapes+1+4,
		4+1, (n-shapes)+32)

	// The unannotated rules read Name, so the key keeps it: only the
	// two exact repeats are answered.
	plain := Action{Name: "plain", Actor: ActorGovernment, Timing: TimingStored, Data: DataContent, Source: SourceSeizedDevice}
	warrant := plain
	warrant.Name = "warrant:now"
	other := plain
	other.Name = "other"
	checkBatchIdentity(t, "name-reading", unannotatedNameRules(),
		[]Action{plain, warrant, plain, other, warrant}, -1, 3, 2, 0)
}

// checkBatchIdentity runs actions through EvaluateBatch on engines over
// rules (nil: the defaults) and holds each run to per-action Evaluate
// and to the given counter split. Slots from badFrom on (when >= 0) are
// expected to fail validation; every other slot must rule.
func checkBatchIdentity(t *testing.T, label string, rules []Rule, actions []Action, badFrom int, wantEvals, wantDeduped, wantChained uint64) {
	t.Helper()
	ref := NewEngine(WithRules(rules))
	want := make([]Ruling, len(actions))
	var wantErr []string
	for i, a := range actions {
		r, err := ref.Evaluate(a)
		if (err != nil) != (badFrom >= 0 && i >= badFrom) {
			t.Fatalf("%s: slot %d: reference error %v", label, i, err)
		}
		if err != nil {
			wantErr = append(wantErr, fmt.Sprintf("action %d: %v", i, err))
		}
		want[i] = r
	}
	if wantEvals+wantDeduped+wantChained != uint64(len(actions)) {
		t.Fatalf("%s: expected split %d+%d+%d does not cover %d slots", label, wantEvals, wantDeduped, wantChained, len(actions))
	}

	ctx := context.Background()
	for _, cached := range []bool{false, true} {
		opts := []EngineOption{WithRules(rules), WithEngineStats()}
		if cached {
			opts = append(opts, WithRulingCache(0))
		}
		e := NewEngine(opts...)
		got, err := e.EvaluateBatch(ctx, actions)
		run := fmt.Sprintf("%s cached=%v", label, cached)
		for i := range got {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("%s: slot %d diverged from per-action evaluation:\n got %+v\nwant %+v",
					run, i, got[i], want[i])
			}
		}
		gotErr := ""
		if err != nil {
			gotErr = err.Error()
		}
		if w := strings.Join(wantErr, "\n"); gotErr != w {
			t.Fatalf("%s: joined errors\n got %q\nwant %q", run, gotErr, w)
		}
		s := e.Stats()
		if s.Evaluations != wantEvals || s.BatchDeduped != wantDeduped || s.BatchDeltaChained != wantChained {
			t.Fatalf("%s: evaluations/deduped/chained = %d/%d/%d, want %d/%d/%d", run,
				s.Evaluations, s.BatchDeduped, s.BatchDeltaChained, wantEvals, wantDeduped, wantChained)
		}
	}
}

// unannotatedNameRules is a rule table without Reads annotations whose
// first rule really does read Name: a "warrant:" prefix demands a
// search warrant.
func unannotatedNameRules() []Rule {
	return []Rule{
		{
			Name:     "name-sensitive",
			When:     func(rc *RuleContext) bool { return strings.HasPrefix(rc.Action.Name, "warrant:") },
			Apply:    func(rc *RuleContext) { rc.Require(ProcessSearchWarrant, RegimeFourthAmendment, "named warrant") },
			Terminal: true,
		},
		{
			Name:     "default-none",
			Apply:    func(rc *RuleContext) { rc.Require(ProcessNone, RegimeNone, "default none") },
			Terminal: true,
		},
	}
}

// TestBatchChainBaseErrorFallsBack pins the chain pre-pass's error
// path: when the chain base fails validation, the chained slots must be
// evaluated individually so each error names its own action, never the
// base's.
func TestBatchChainBaseErrorFallsBack(t *testing.T) {
	// Same shape, different names; both invalid (out-of-range consent
	// scope packs exactly but fails Validate — dims stay in range so
	// the shape is chainable if nothing intervenes).
	bad := Action{
		Name:    "bad-base",
		Actor:   ActorGovernment,
		Timing:  TimingStored,
		Data:    DataContent,
		Source:  SourceSeizedDevice,
		Consent: &Consent{Scope: ConsentScope(15)},
	}
	other := bad
	other.Name = "bad-chained"
	rulings, err := NewEngine().EvaluateBatch(context.Background(), []Action{bad, other})
	if err == nil {
		t.Fatal("expected validation errors")
	}
	if len(rulings) != 2 {
		t.Fatalf("got %d rulings, want 2", len(rulings))
	}
	msg := err.Error()
	if !strings.Contains(msg, "action 0") || !strings.Contains(msg, "action 1") {
		t.Fatalf("both slots must report their own error, got: %v", msg)
	}
}

// TestDeltaUnannotatedRulesForceReEvaluation pins soundness for rule
// tables without Reads annotations: an unannotated rule is treated as
// reading every field (Name included), so a name-only delta is re-ruled
// under the new name and the batch pre-pass never chains, even when the
// rule really does depend on Name.
func TestDeltaUnannotatedRulesForceReEvaluation(t *testing.T) {
	rules := unannotatedNameRules()
	e := NewEngine(WithRules(rules), WithEngineStats())
	base := Action{Name: "plain", Actor: ActorGovernment, Timing: TimingStored, Data: DataContent, Source: SourceSeizedDevice}
	prev, err := e.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}
	if prev.Required != ProcessNone {
		t.Fatalf("base ruling = %v, want ProcessNone", prev.Required)
	}

	target := base
	target.Name = "warrant:now"
	got, err := e.EvaluateDelta(&prev, Diff(&base, &target))
	if err != nil {
		t.Fatal(err)
	}
	if got.Required != ProcessSearchWarrant {
		t.Fatalf("name-only delta across an unannotated rule returned %v, want ProcessSearchWarrant", got.Required)
	}
	rulings, err := e.EvaluateBatch(context.Background(), []Action{base, target})
	if err != nil {
		t.Fatal(err)
	}
	if rulings[0].Required != ProcessNone || rulings[1].Required != ProcessSearchWarrant {
		t.Fatalf("batch rulings %v/%v, want ProcessNone/ProcessSearchWarrant", rulings[0].Required, rulings[1].Required)
	}
	if s := e.Stats(); s.BatchDeltaChained != 0 {
		t.Fatalf("chained %d slots across unannotated rules", s.BatchDeltaChained)
	}
}

// TestEvaluateDeltaNilPrev pins the nil-guard.
func TestEvaluateDeltaNilPrev(t *testing.T) {
	var d ActionDelta
	if _, err := NewEngine().EvaluateDelta(nil, d); err == nil {
		t.Fatal("nil previous ruling must error")
	}
}

// TestDeltaEncoding pins the canonical text encoding's shape — the
// audit-trail grammar custody logs and monitor transcripts record.
func TestDeltaEncoding(t *testing.T) {
	var d ActionDelta
	d.SetFlag(FieldEncrypted, false, true).
		SetData(DataAddressing, DataContent).
		SetConsent(&Consent{Scope: ConsentOwnData}, nil)
	got := d.Encoding()
	want := fmt.Sprintf("delta{encrypted:0>1;data:%d>%d;consent:{%d|0|0|0|}>-}",
		DataAddressing, DataContent, ConsentOwnData)
	if got != want {
		t.Fatalf("Encoding() = %q, want %q", got, want)
	}
	if d.Len() != 3 {
		t.Fatalf("Len() = %d, want 3", d.Len())
	}
}

// TestFieldJSONRoundTrip pins the Field name codec used by JSONL delta
// streams: every field round-trips, and unknown names and integers
// outside [0, numFields) are rejected by value rather than wrapped.
func TestFieldJSONRoundTrip(t *testing.T) {
	for f := Field(0); f < numFields; f++ {
		data, err := f.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		var back Field
		if err := back.UnmarshalJSON(data); err != nil {
			t.Fatal(err)
		}
		if back != f {
			t.Fatalf("field %v round-tripped to %v", f, back)
		}
	}
	for _, in := range []string{`"no-such-field"`, `-253`, `300`, `-1`} {
		var f Field
		err := f.UnmarshalJSON([]byte(in))
		if err == nil {
			t.Fatalf("field %s must error, decoded to %v", in, f)
		}
		if !strings.Contains(err.Error(), strings.Trim(in, `"`)) {
			t.Fatalf("field %s: error %q does not name the value", in, err)
		}
	}
}
