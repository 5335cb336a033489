package capture

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// TestMonitorEscalation walks the paper's scope-creep scene: a header
// sniffer (addressing, pen/trap regime) escalated to a full wiretap
// (content, Wiretap Act) mid-capture. The monitor must re-rule the
// delta, flag the change, and agree byte-for-byte with a full
// evaluation of the rebuilt action.
func TestMonitorEscalation(t *testing.T) {
	d, err := New(HeaderSniffer, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	engine := legal.NewEngine()
	m, err := NewMonitor(engine, d.Action())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Ruling().Regime; got != legal.RegimePenTrap {
		t.Fatalf("base regime = %v, want %v", got, legal.RegimePenTrap)
	}

	delta, err := d.Escalate(FullWiretap)
	if err != nil {
		t.Fatal(err)
	}
	r, changed, err := m.Apply(5*time.Second, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !changed {
		t.Error("escalation to full wiretap must change the ruling")
	}
	if r.Regime != legal.RegimeWiretap {
		t.Errorf("escalated regime = %v, want %v", r.Regime, legal.RegimeWiretap)
	}

	// The monitor's delta-ruled state must equal a full evaluation of
	// the device's current action on a fresh engine.
	want, err := legal.NewEngine().Evaluate(d.Action())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Ruling(); !reflect.DeepEqual(got, want) {
		t.Errorf("monitor ruling diverged from full evaluation:\n got %+v\nwant %+v", got, want)
	}

	trans := m.Transitions()
	if len(trans) != 1 {
		t.Fatalf("transitions = %d, want 1", len(trans))
	}
	tr := trans[0]
	if tr.Event != 1 || tr.At != 5*time.Second {
		t.Errorf("transition event/at = %d/%v, want 1/5s", tr.Event, tr.At)
	}
	if tr.FromRegime != legal.RegimePenTrap || tr.ToRegime != legal.RegimeWiretap {
		t.Errorf("transition regimes = %v -> %v", tr.FromRegime, tr.ToRegime)
	}
	if !strings.Contains(tr.Delta, "data:") {
		t.Errorf("transition delta %q should record the data-class change", tr.Delta)
	}
}

// TestMonitorConsentRevocationAndExigencyLapse drives the two other
// event sources. Revoking consent on a party-consent wiretap and
// letting an emergency authorization lapse must both surface as
// transitions; the device's stored consent must keep its recorded
// value untouched (the delta adopts pointers).
func TestMonitorConsentRevocationAndExigencyLapse(t *testing.T) {
	consent := &legal.Consent{Scope: legal.ConsentCommunicationParty}
	p := govISPPlacement()
	p.Consent = consent
	d, err := New(FullWiretap, p, legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	engine := legal.NewEngine()
	m, err := NewMonitor(engine, d.Action())
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Ruling().Required; got != legal.ProcessNone {
		t.Fatalf("party-consent wiretap requires %v, want none", got)
	}

	delta, err := d.RevokeConsent()
	if err != nil {
		t.Fatal(err)
	}
	r, changed, err := m.Apply(time.Second, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !changed || r.Required == legal.ProcessNone {
		t.Errorf("revocation must raise the required process; changed=%v required=%v", changed, r.Required)
	}
	if consent.Revoked {
		t.Error("RevokeConsent mutated the originally recorded consent in place")
	}
	if d.placement.Consent == nil || !d.placement.Consent.Revoked {
		t.Error("device placement should now carry the revoked consent copy")
	}

	// Exigency: a pen register installed under the § 3125 emergency
	// provision whose authorization then lapses.
	pe := govISPPlacement()
	pe.Exigency = &legal.Exigency{Kind: legal.ExigencyEmergencyPenTrap, Approved: true}
	de, err := New(PenRegister, pe, legal.ProcessNone)
	if err != nil {
		t.Fatal(err)
	}
	me, err := NewMonitor(engine, de.Action())
	if err != nil {
		t.Fatal(err)
	}
	lapse, err := de.LapseExigency()
	if err != nil {
		t.Fatal(err)
	}
	r2, changed2, err := me.Apply(2*time.Second, lapse)
	if err != nil {
		t.Fatal(err)
	}
	if !changed2 || r2.Required == legal.ProcessNone {
		t.Errorf("lapsed exigency must raise the required process; changed=%v required=%v", changed2, r2.Required)
	}
	if de.placement.Exigency != nil {
		t.Error("LapseExigency should clear the placement exigency")
	}

	// Second lapse / revocation with nothing to act on must error.
	if _, err := de.LapseExigency(); err == nil {
		t.Error("LapseExigency on a device without exigency should fail")
	}
	if _, err := de.RevokeConsent(); err == nil {
		t.Error("RevokeConsent on a device without consent should fail")
	}
}

// TestMonitorQuietEventsAndTranscript checks the streaming contract:
// events that do not move the ruling report changed=false and record no
// transition, but every event still lands in the audit transcript, and
// an invalid delta leaves the monitor state untouched.
func TestMonitorQuietEventsAndTranscript(t *testing.T) {
	d, err := New(PenRegister, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	engine := legal.NewEngine()
	m, err := NewMonitor(engine, d.Action())
	if err != nil {
		t.Fatal(err)
	}
	before := m.Ruling()

	// A pen register re-kinded to a trap-and-trace stays in the same
	// regime with the same required process: quiet event.
	delta, err := d.Escalate(TrapTrace)
	if err != nil {
		t.Fatal(err)
	}
	_, changed, err := m.Apply(time.Second, delta)
	if err != nil {
		t.Fatal(err)
	}
	if changed {
		t.Error("pen register -> trap and trace should not change the ruling")
	}
	if n := len(m.Transitions()); n != 0 {
		t.Errorf("quiet event recorded %d transitions", n)
	}
	if m.Events() != 1 {
		t.Errorf("events = %d, want 1", m.Events())
	}

	// An invalid delta must error and leave the ruling in force.
	var bad legal.ActionDelta
	bad.SetActor(d.Action().Actor, legal.Actor(99))
	if _, _, err := m.Apply(2*time.Second, bad); err == nil {
		t.Fatal("invalid delta must error")
	}
	if m.Events() != 1 {
		t.Errorf("failed event counted: events = %d, want 1", m.Events())
	}
	if got := m.Ruling(); got.Required != before.Required || got.Regime != before.Regime {
		t.Error("failed event mutated the monitor's ruling")
	}

	ts := m.Transcript()
	lines := strings.Split(strings.TrimRight(ts, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("transcript lines = %d, want 2 (base + one event):\n%s", len(lines), ts)
	}
	if !strings.HasPrefix(lines[0], "base ") {
		t.Errorf("transcript line 0 = %q, want base line", lines[0])
	}
	if !strings.HasPrefix(lines[1], "t=1000000000 delta{") {
		t.Errorf("transcript line 1 = %q, want timestamped delta line", lines[1])
	}
	if !strings.Contains(lines[1], " -> court order (") {
		t.Errorf("transcript line 1 = %q, should carry the status suffix", lines[1])
	}
}

// TestMonitorApplyAllBatchSeals proves the buffered-burst path is
// observationally identical to per-event Apply: same final ruling, same
// transitions, and a byte-identical ledger root — AppendBatch sealing
// must not be distinguishable from sequential sealing.
func TestMonitorApplyAllBatchSeals(t *testing.T) {
	d, err := New(PenRegister, govISPPlacement(), legal.ProcessCourtOrder)
	if err != nil {
		t.Fatal(err)
	}
	base := d.Action()
	var burst []TimedDelta
	for i, kind := range []DeviceKind{TrapTrace, HeaderSniffer, FullWiretap} {
		delta, err := d.Escalate(kind)
		if err != nil {
			t.Fatal(err)
		}
		burst = append(burst, TimedDelta{At: time.Duration(i+1) * time.Second, Delta: delta})
	}

	engine := legal.NewEngine()
	ledSeq, ledBatch := ledger.New(), ledger.New()
	seq, err := NewMonitor(engine, base, WithAuditLedger(ledSeq, "op", "dev-1"))
	if err != nil {
		t.Fatal(err)
	}
	for _, ev := range burst {
		if _, _, err := seq.Apply(ev.At, ev.Delta); err != nil {
			t.Fatal(err)
		}
	}
	batch, err := NewMonitor(engine, base, WithAuditLedger(ledBatch, "op", "dev-1"))
	if err != nil {
		t.Fatal(err)
	}
	applied, err := batch.ApplyAll(burst)
	if err != nil {
		t.Fatal(err)
	}
	if applied != len(burst) {
		t.Fatalf("applied = %d, want %d", applied, len(burst))
	}

	if got, want := batch.Ruling(), seq.Ruling(); !reflect.DeepEqual(got, want) {
		t.Errorf("burst ruling diverged:\n got %+v\nwant %+v", got, want)
	}
	if got, want := batch.Transitions(), seq.Transitions(); !reflect.DeepEqual(got, want) {
		t.Errorf("burst transitions diverged:\n got %+v\nwant %+v", got, want)
	}
	if got, want := batch.Transcript(), seq.Transcript(); got != want {
		t.Errorf("burst transcript diverged:\n got %q\nwant %q", got, want)
	}
	if err := ledBatch.Verify(); err != nil {
		t.Fatalf("batch-sealed ledger verify: %v", err)
	}
	if got, want := ledBatch.Root(), ledSeq.Root(); got != want {
		t.Errorf("batch-sealed root %x != sequentially sealed root %x", got, want)
	}

	// A burst that fails mid-way seals the applied prefix and reports
	// the count, so the audit record matches the monitor's state.
	var bad legal.ActionDelta
	bad.SetActor(batch.Ruling().Action.Actor, legal.Actor(99))
	good, err := d.Escalate(PenRegister)
	if err != nil {
		t.Fatal(err)
	}
	before := ledBatch.Len()
	applied, err = batch.ApplyAll([]TimedDelta{
		{At: 10 * time.Second, Delta: good},
		{At: 11 * time.Second, Delta: bad},
	})
	if err == nil || applied != 1 {
		t.Fatalf("partial burst: applied=%d err=%v, want 1 applied with error", applied, err)
	}
	if got := ledBatch.Len(); got != before+1 {
		t.Errorf("partial burst sealed %d records, want 1", got-before)
	}
}
