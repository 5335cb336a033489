package legal

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// TestCachedEvaluationIdentical: with the cache enabled, first and
// repeated evaluations return rulings identical to an uncached engine,
// across the whole sweep.
func TestCachedEvaluationIdentical(t *testing.T) {
	plain := NewEngine()
	cached := NewEngine(WithRulingCache(4))
	for _, a := range sweepActions() {
		want, err := plain.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := cached.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		warm, err := cached.Evaluate(a)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(cold, want) {
			t.Fatalf("cold cached ruling diverged for %s", a.Fingerprint())
		}
		if !reflect.DeepEqual(warm, want) {
			t.Fatalf("warm cached ruling diverged for %s", a.Fingerprint())
		}
	}
	if cached.CacheSize() == 0 {
		t.Error("cache recorded nothing")
	}
	if NewEngine().CacheSize() != 0 {
		t.Error("cache-less engine reports a cache size")
	}
}

// TestFingerprintDistinguishesActions: any two distinct sweep actions must
// have distinct fingerprints — a collision would silently serve the wrong
// ruling.
func TestFingerprintDistinguishesActions(t *testing.T) {
	seen := make(map[string]Action)
	for _, a := range sweepActions() {
		a := a
		fp := a.Fingerprint()
		if prev, ok := seen[fp]; ok && !reflect.DeepEqual(prev, a) {
			t.Fatalf("fingerprint collision:\n  %+v\n  %+v", prev, a)
		}
		seen[fp] = a
	}

	// Pointer sub-structures must be encoded by value, not identity.
	base := Action{
		Name: "fp", Actor: ActorGovernment, Timing: TimingStored,
		Data: DataDeviceContents, Source: SourceTargetDevice,
	}
	variants := []Action{base}
	withConsent := base
	withConsent.Consent = &Consent{Scope: ConsentOwnData}
	withRevoked := base
	withRevoked.Consent = &Consent{Scope: ConsentOwnData, Revoked: true}
	withTech := base
	withTech.Tech = &SpecializedTech{RevealsHomeInterior: true}
	withWorkplace := base
	withWorkplace.Workplace = &WorkplaceSearch{GovernmentEmployer: true}
	withExigency := base
	withExigency.Exigency = &Exigency{Kind: ExigencyDanger}
	withExposure := base
	withExposure.Exposure = []ExposureFact{ExposureAbandoned}
	withName := base
	withName.Name = "fp2"
	variants = append(variants, withConsent, withRevoked, withTech,
		withWorkplace, withExigency, withExposure, withName)
	fps := make(map[string]bool)
	for _, v := range variants {
		fp := v.Fingerprint()
		if fps[fp] {
			t.Fatalf("variant fingerprint collision: %q", fp)
		}
		fps[fp] = true
	}
}

// TestFingerprintStable: equal actions (including deep-equal pointer
// fields at different addresses) share a fingerprint.
func TestFingerprintStable(t *testing.T) {
	a := Action{
		Name: "stable", Actor: ActorGovernment, Timing: TimingRealTime,
		Data: DataContent, Source: SourceVictimSystem,
		Consent:  &Consent{Scope: ConsentVictimTrespasser},
		Exposure: []ExposureFact{ExposureDelivered},
	}
	b := a
	b.Consent = &Consent{Scope: ConsentVictimTrespasser}
	b.Exposure = []ExposureFact{ExposureDelivered}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("deep-equal actions produced different fingerprints")
	}
}

// TestRulingsShareVerdict pins the sharing that consumers of verdicts
// (the batch envelope's tail table) rely on: one cache key or one
// answering batch slot yields one *Verdict, while an uncached engine
// builds each verdict afresh.
func TestRulingsShareVerdict(t *testing.T) {
	// A valid action in a bucket whose rules never read Name.
	var a Action
	probe := NewEngine()
	for _, s := range sweepActions() {
		if w, exact := packAction(&s); exact && probe.dispatch.nameBlind(w) && s.Validate() == nil {
			a = s
			break
		}
	}
	if a.Name == "" {
		t.Fatal("no name-blind sweep action")
	}
	variant := a
	variant.Name = "another case"

	cached := NewEngine(WithRulingCache(0))
	first, err := cached.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []Action{a, variant} {
		r, err := cached.Evaluate(b)
		if err != nil {
			t.Fatal(err)
		}
		if r.Verdict != first.Verdict || r.Action.Name != b.Name {
			t.Errorf("cached %q: verdict %p under %q, want %p under %q",
				b.Name, r.Verdict, r.Action.Name, first.Verdict, b.Name)
		}
	}

	plain := NewEngine()
	batch := []Action{a, a, variant}
	rulings, err := plain.EvaluateBatch(context.Background(), batch)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range rulings {
		if r.Verdict != rulings[0].Verdict || r.Action.Name != batch[i].Name {
			t.Errorf("batch slot %d: verdict %p under %q, want slot 0's %p under %q",
				i, r.Verdict, r.Action.Name, rulings[0].Verdict, batch[i].Name)
		}
	}

	again, err := plain.Evaluate(a)
	if err != nil {
		t.Fatal(err)
	}
	if again.Verdict == rulings[0].Verdict || !reflect.DeepEqual(again.Verdict, rulings[0].Verdict) {
		t.Errorf("uncached verdicts %p and %p: want distinct pointers to equal verdicts",
			again.Verdict, rulings[0].Verdict)
	}
}

// TestZeroRulingHasNoVerdict checks what a zero Ruling — the slot of a
// failed evaluation — answers without a verdict: no process needed,
// no exception relied on, and a printed form that shows a zero verdict
// rather than an address.
func TestZeroRulingHasNoVerdict(t *testing.T) {
	var r Ruling
	if r.NeedsProcess() || r.HasException(ExceptionConsent) {
		t.Error("a zero ruling needs process or relied on an exception")
	}
	if got, want := fmt.Sprintf("%+v", r), fmt.Sprintf("%+v", struct {
		Action  Action
		Verdict Verdict
	}{}); got != want {
		t.Errorf("zero ruling prints %s, want %s", got, want)
	}
	full, err := NewEngine().Evaluate(Action{Name: "n", Actor: ActorGovernment,
		Timing: TimingStored, Data: DataContent, Source: SourceSeizedDevice})
	if err != nil {
		t.Fatal(err)
	}
	if s := fmt.Sprintf("%v", full); !strings.Contains(s, full.Rationale[0]) {
		t.Errorf("ruling prints %s, without its rationale", s)
	}
}
