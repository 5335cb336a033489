package legal

import (
	"reflect"
	"testing"
)

// FuzzEvaluate drives Action.Validate and Engine.Evaluate with arbitrary
// field values: validation and evaluation must never panic, every valid
// action must produce a non-zero ruling (a defined process level and a
// governing-regime determination with at least one rationale line), and
// invalid actions must be rejected with an error. The seed corpus covers
// every enum's extremes plus the paper's Table 1 shapes.
func FuzzEvaluate(f *testing.F) {
	// Table-1-shaped seeds.
	f.Add(int8(1), int8(1), int8(2), int8(1), false, int8(0), false, false, int8(0), false, false, false, int8(0), false, false, false, uint8(0))
	f.Add(int8(1), int8(1), int8(1), int8(2), true, int8(0), false, false, int8(0), false, false, false, int8(0), false, false, false, uint8(0))
	f.Add(int8(1), int8(2), int8(6), int8(6), false, int8(0), false, false, int8(0), false, false, false, int8(0), false, false, true, uint8(0))
	f.Add(int8(1), int8(2), int8(1), int8(4), false, int8(0), false, false, int8(2), false, false, false, int8(0), true, false, false, uint8(0))
	f.Add(int8(4), int8(1), int8(2), int8(1), false, int8(0), false, false, int8(0), false, false, false, int8(0), false, false, false, uint8(5))
	f.Add(int8(1), int8(1), int8(1), int8(8), false, int8(8), false, false, int8(0), false, false, false, int8(0), false, false, false, uint8(0))
	// Exception-doctrine seeds.
	f.Add(int8(1), int8(2), int8(6), int8(9), false, int8(2), true, false, int8(0), true, true, false, int8(0), false, false, false, uint8(0))
	f.Add(int8(2), int8(1), int8(2), int8(3), false, int8(7), false, true, int8(5), false, false, true, int8(1), false, true, false, uint8(3))
	// Out-of-range seeds: must error, not panic.
	f.Add(int8(0), int8(0), int8(0), int8(0), false, int8(0), false, false, int8(0), false, false, false, int8(0), false, false, false, uint8(0))
	f.Add(int8(99), int8(-3), int8(7), int8(10), true, int8(9), true, true, int8(6), true, true, true, int8(4), true, true, true, uint8(255))

	f.Fuzz(func(t *testing.T,
		actor, timing, data, source int8,
		encrypted bool,
		consentScope int8, consentRevoked, consentExceeds bool,
		exigencyKind int8, exigencyApproved bool,
		plainView, lawfulVantage bool,
		providerRole int8, providerPublic bool,
		intercepts, beyond bool,
		exposureBits uint8,
	) {
		a := Action{
			Name:                  "fuzz",
			Actor:                 Actor(actor),
			Timing:                Timing(timing),
			Data:                  DataClass(data),
			Source:                Source(source),
			Encrypted:             encrypted,
			PlainView:             plainView,
			LawfulVantage:         lawfulVantage,
			ProviderRole:          ProviderRole(providerRole),
			ProviderPublic:        providerPublic,
			InterceptsThirdParty:  intercepts,
			SearchBeyondAuthority: beyond,
		}
		if consentScope != 0 {
			a.Consent = &Consent{
				Scope:        ConsentScope(consentScope),
				Revoked:      consentRevoked,
				ExceedsScope: consentExceeds,
			}
		}
		if exigencyKind != 0 {
			a.Exigency = &Exigency{Kind: ExigencyKind(exigencyKind), Approved: exigencyApproved}
		}
		for bit := 0; bit < 8; bit++ {
			if exposureBits&(1<<bit) != 0 {
				a.Exposure = append(a.Exposure, ExposureFact(bit+1))
			}
		}

		engine := NewEngine()
		r, err := engine.Evaluate(a)
		if a.Validate() != nil {
			if err == nil {
				t.Fatalf("invalid action accepted: %+v", a)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid action rejected: %v (%+v)", err, a)
		}
		if !r.Required.Valid() {
			t.Fatalf("ruling has no defined process level: %+v", r)
		}
		if r.Regime == 0 {
			t.Fatalf("ruling has no governing-regime determination: %+v", r)
		}
		if len(r.Rationale) == 0 {
			t.Fatalf("ruling has no rationale: %+v", r)
		}
		if len(r.Applied) == 0 {
			t.Fatalf("ruling applied no rules: %+v", r)
		}

		// The compiled dispatch walk must be byte-identical to the
		// naive full-table reference scan (see dispatch.go).
		if lin := engine.evaluateLinear(a); !reflect.DeepEqual(r, lin) {
			t.Fatalf("dispatch diverged from linear scan:\n got %+v\nwant %+v", r, lin)
		}

		// The cached engine must agree (purity + cache soundness under
		// fuzzing).
		cached := NewEngine(WithRulingCache(1))
		for i := 0; i < 2; i++ {
			cr, err := cached.Evaluate(a)
			if err != nil {
				t.Fatalf("cached evaluation failed: %v", err)
			}
			if cr.Required != r.Required || cr.Regime != r.Regime {
				t.Fatalf("cached ruling diverged: %v/%v vs %v/%v",
					cr.Required, cr.Regime, r.Required, r.Regime)
			}
		}

		// Delta equivalence under fuzzing: for every catalog mutation of
		// this action, EvaluateDelta from its ruling must match a full
		// Evaluate of the mutant (errors included), and apply-then-unapply
		// must restore the action exactly.
		for _, m := range deltaMuts {
			target := a
			m.mut(&target)
			d := Diff(&a, &target)
			got, gerr := engine.EvaluateDelta(&r, d)
			want, werr := engine.Evaluate(target)
			if (gerr == nil) != (werr == nil) ||
				(gerr != nil && gerr.Error() != werr.Error()) {
				t.Fatalf("mutation %q: delta error %v, full error %v (%+v)", m.name, gerr, werr, a)
			}
			if werr == nil && !reflect.DeepEqual(got, want) {
				t.Fatalf("mutation %q: EvaluateDelta diverged:\n got %+v\nwant %+v", m.name, got, want)
			}
			cur := a
			d.Apply(&cur)
			d.Unapply(&cur)
			if !reflect.DeepEqual(cur, a) {
				t.Fatalf("mutation %q: apply/unapply did not round-trip:\n got %+v\nwant %+v", m.name, cur, a)
			}
		}
	})
}
