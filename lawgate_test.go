package lawgate_test

import (
	"testing"

	"lawgate"
	"lawgate/internal/legal"
	"lawgate/internal/p2p"
)

// TestFacadeTable1 exercises the headline reproduction through the public
// API alone.
func TestFacadeTable1(t *testing.T) {
	engine := lawgate.NewEngine()
	scenes := lawgate.Table1()
	if len(scenes) != 20 {
		t.Fatalf("Table1 = %d scenes", len(scenes))
	}
	for _, s := range scenes {
		r, err := engine.Evaluate(s.Action)
		if err != nil {
			t.Fatalf("scene %d: %v", s.Number, err)
		}
		if r.NeedsProcess() != s.PaperNeeds {
			t.Errorf("scene %d: engine %v, paper %v", s.Number, r.NeedsProcess(), s.PaperNeeds)
		}
	}
}

func TestFacadeCaseStudies(t *testing.T) {
	engine := lawgate.NewEngine()
	for _, cs := range lawgate.CaseStudies() {
		r, err := engine.Evaluate(cs.Action)
		if err != nil {
			t.Fatalf("%s: %v", cs.ID, err)
		}
		if r.Required != cs.PaperProcess {
			t.Errorf("%s: engine %v, paper %v", cs.ID, r.Required, cs.PaperProcess)
		}
	}
}

func TestFacadeConstants(t *testing.T) {
	if lawgate.ProcessNone != legal.ProcessNone || lawgate.ProcessWiretapOrder != legal.ProcessWiretapOrder {
		t.Error("re-exported constants must match")
	}
	ordered := []lawgate.Process{
		lawgate.ProcessNone, lawgate.ProcessSubpoena, lawgate.ProcessCourtOrder,
		lawgate.ProcessSearchWarrant, lawgate.ProcessWiretapOrder,
	}
	for i := 1; i < len(ordered); i++ {
		if !ordered[i].Satisfies(ordered[i-1]) {
			t.Errorf("%v must satisfy %v", ordered[i], ordered[i-1])
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	p2pRes, err := lawgate.RunP2PExperiment(lawgate.P2PExperimentConfig{
		Seed: 1, Neighbors: 6, Sources: 2, Probes: 4,
		Overlay: p2p.DefaultConfig(p2p.ModeAnonymous),
	})
	if err != nil {
		t.Fatal(err)
	}
	if p2pRes.Accuracy() != 1 {
		t.Errorf("p2p accuracy = %.2f", p2pRes.Accuracy())
	}
	wmRes, err := lawgate.RunWatermarkExperiment(lawgate.DefaultWatermarkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !wmRes.Detected {
		t.Errorf("watermark not detected: Z = %.2f", wmRes.Watermark.Z)
	}
}

func TestFacadeFaultInjector(t *testing.T) {
	plan, err := lawgate.FaultProfile("lossy")
	if err != nil {
		t.Fatal(err)
	}
	in, err := lawgate.NewFaultInjector(plan, 7, "investigator", "peer-00")
	if err != nil {
		t.Fatal(err)
	}
	if !in.Covers("investigator") || !in.Covers("peer-00") || in.Covers("peer-01") {
		t.Error("injector must cover exactly the named nodes")
	}
	if _, err := lawgate.NewFaultInjector(lawgate.FaultPlan{Loss: 2}, 7); err == nil {
		t.Error("NewFaultInjector accepted loss 2")
	}
}

func TestFacadeCaseAndLocker(t *testing.T) {
	c := lawgate.NewCase("facade")
	if c == nil {
		t.Fatal("NewCase returned nil")
	}
	l := lawgate.NewLocker()
	if l.Len() != 0 {
		t.Errorf("fresh locker length = %d", l.Len())
	}
	ct := lawgate.NewCourt()
	if ct == nil {
		t.Fatal("NewCourt returned nil")
	}
	g := lawgate.NewGate(true)
	if g == nil {
		t.Fatal("NewGate returned nil")
	}
}

func TestFacadeFlows(t *testing.T) {
	drive, err := lawgate.RunDriveExam(true)
	if err != nil {
		t.Fatal(err)
	}
	if len(drive.Hits) != 2 {
		t.Errorf("drive hits = %d", len(drive.Hits))
	}
	attr, err := lawgate.RunAttributionExam(true)
	if err != nil {
		t.Fatal(err)
	}
	if !attr.WarrantIssued {
		t.Error("attribution warrant not issued")
	}
	p2pFlow, err := lawgate.RunP2PTraceback(lawgate.P2PTracebackConfig{
		Seed: 3, Neighbors: 6, Sources: 2, Probes: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(p2pFlow.Identified) != 2 {
		t.Errorf("identified = %d", len(p2pFlow.Identified))
	}
	wm, err := lawgate.RunWatermarkTraceback(lawgate.DefaultWatermarkConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !wm.Experiment.Detected {
		t.Error("watermark traceback not detected")
	}
}

func TestFacadeAdvise(t *testing.T) {
	engine := lawgate.NewEngine()
	var advice []lawgate.Advice
	for _, s := range lawgate.Table1() {
		if s.Number != 8 {
			continue
		}
		var err error
		advice, err = engine.Advise(s.Action)
		if err != nil {
			t.Fatal(err)
		}
	}
	if len(advice) == 0 {
		t.Fatal("no advice for scene 8")
	}
	for _, ad := range advice {
		if !ad.Ruling.Required.Satisfies(lawgate.ProcessNone) {
			t.Error("invalid advice process")
		}
	}
}

// TestFacadeDeltaPipeline drives the event-carried delta path through
// the public API alone: rule a base action, Diff a mutation, re-rule it
// through EvaluateDelta, and check it equals a full evaluation.
func TestFacadeDeltaPipeline(t *testing.T) {
	engine := lawgate.NewEngine()
	base := lawgate.Action{
		Name:   "facade-delta",
		Actor:  legal.ActorGovernment,
		Timing: legal.TimingRealTime,
		Data:   legal.DataAddressing,
		Source: legal.SourceThirdPartyNetwork,
	}
	prev, err := engine.Evaluate(base)
	if err != nil {
		t.Fatal(err)
	}

	escalated := base
	escalated.Data = legal.DataContent
	d := lawgate.Diff(&base, &escalated)
	if d.Len() != 1 || d.Fields[0].Field != lawgate.FieldData {
		t.Fatalf("Diff = %+v, want one FieldData change", d)
	}

	got, err := engine.EvaluateDelta(&prev, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.Evaluate(escalated)
	if err != nil {
		t.Fatal(err)
	}
	if got.Required != want.Required || got.Regime != want.Regime {
		t.Errorf("delta ruling = %v/%v, full = %v/%v",
			got.Required, got.Regime, want.Required, want.Regime)
	}
	if got.Required != lawgate.ProcessWiretapOrder {
		t.Errorf("escalated required = %v, want wiretap order", got.Required)
	}

	// Round trip: applying then unapplying restores the base action.
	a := base
	d.Apply(&a)
	d.Unapply(&a)
	if a.Fingerprint() != base.Fingerprint() {
		t.Error("apply/unapply did not restore the base action")
	}
}
