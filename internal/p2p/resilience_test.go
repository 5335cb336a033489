package p2p

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/netsim"
)

// TestProbeReliablyTimesOut: on a substrate that eats every packet, a
// reliable probe exhausts its attempts, finalizes unanswered
// measurements, and the neighbor classifies as no-response instead of
// erroring out.
func TestProbeReliablyTimesOut(t *testing.T) {
	sim := netsim.NewSimulator(1)
	net := netsim.NewNetwork(sim)
	o := NewOverlay(net, DefaultConfig(ModeAnonymous))
	inv, err := NewInvestigator(o, "investigator")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.AddPeer("peer", ContrabandKey); err != nil {
		t.Fatal(err)
	}
	if err := inv.Befriend("peer"); err != nil {
		t.Fatal(err)
	}
	hook, err := faults.NewPartitioned(faults.Plan{Loss: 1.0}, 1, net.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	if err := net.SetFaults(hook); err != nil {
		t.Fatal(err)
	}
	policy := RetryPolicy{Attempts: 2, Timeout: time.Second, Backoff: 100 * time.Millisecond}
	if err := inv.ProbeReliably("peer", ContrabandKey, policy); err != nil {
		t.Fatal(err)
	}
	sim.Run()
	if inv.Outstanding() != 0 {
		t.Errorf("%d probes still pending after timeout drain", inv.Outstanding())
	}
	ms := inv.MeasurementsFor("peer")
	if len(ms) != 2 {
		t.Fatalf("finalized %d measurements, want 2 (original + retry)", len(ms))
	}
	for _, m := range ms {
		if m.Responded {
			t.Error("measurement marked responded on a total-loss substrate")
		}
	}
	st := inv.Stats()
	if st.Sent != 2 || st.Timeouts != 2 || st.Retries != 1 {
		t.Errorf("stats = %+v, want sent=2 timeouts=2 retries=1", st)
	}
	v, err := AutoClassifier(o.Config()).Classify(ms)
	if err != nil {
		t.Fatal(err)
	}
	if v != VerdictNoResponse {
		t.Errorf("verdict = %v, want no-response", v)
	}
	// The retry's exponential backoff is deterministic: second attempt
	// leaves at timeout + backoff.
	if ms[1].SentAt != policy.Timeout+policy.Backoff {
		t.Errorf("retry sent at %v, want %v", ms[1].SentAt, policy.Timeout+policy.Backoff)
	}
}

// TestProbeReliablyNoFaultsMatchesProbe: on a healthy substrate the
// reliable path measures exactly what the plain path does — the timer
// machinery must not perturb the measurement.
func TestProbeReliablyNoFaultsMatchesProbe(t *testing.T) {
	run := func(reliable bool) Measurement {
		sim := netsim.NewSimulator(9)
		net := netsim.NewNetwork(sim)
		o := NewOverlay(net, DefaultConfig(ModeAnonymous))
		inv, err := NewInvestigator(o, "investigator")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := o.AddPeer("peer", ContrabandKey); err != nil {
			t.Fatal(err)
		}
		if err := inv.Befriend("peer"); err != nil {
			t.Fatal(err)
		}
		if reliable {
			err = inv.ProbeReliably("peer", ContrabandKey, DefaultRetryPolicy(o.Config()))
		} else {
			err = inv.Probe("peer", ContrabandKey)
		}
		if err != nil {
			t.Fatal(err)
		}
		sim.Run()
		ms := inv.MeasurementsFor("peer")
		if len(ms) != 1 || !ms[0].Responded {
			t.Fatalf("reliable=%v: measurements = %+v", reliable, ms)
		}
		return ms[0]
	}
	if plain, rel := run(false), run(true); plain.RTT() != rel.RTT() {
		t.Errorf("RTT differs: plain %v, reliable %v", plain.RTT(), rel.RTT())
	}
}

// TestExperimentGracefulUnderLoss: at the acceptance ceiling of 30%
// loss the experiment completes without error, probes are retried, and
// the completeness figure is explicitly below 1.
func TestExperimentGracefulUnderLoss(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Seed:         3,
		Neighbors:    6,
		Sources:      3,
		Probes:       4,
		Overlay:      DefaultConfig(ModeAnonymous),
		Faults:       faults.Plan{Loss: 0.3},
		ProbeRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Faults.Dropped == 0 {
		t.Error("30% loss dropped nothing")
	}
	if res.Probes.Timeouts == 0 || res.Probes.Retries == 0 {
		t.Errorf("no timeouts/retries under 30%% loss: %+v", res.Probes)
	}
	if a := res.Answered(); a >= 1 || a <= 0 {
		t.Errorf("Answered() = %v, want explicitly in (0,1)", a)
	}
	if total := res.TruePos + res.FalsePos + res.TrueNeg + res.FalseNeg; total != 6 {
		t.Errorf("classified %d neighbors, want all 6", total)
	}
}

// TestExperimentGracefulUnderChurn: at the acceptance ceiling of 20%
// churn every neighbor still gets a verdict and the run terminates.
func TestExperimentGracefulUnderChurn(t *testing.T) {
	res, err := RunExperiment(ExperimentConfig{
		Seed:         4,
		Neighbors:    6,
		Sources:      3,
		Probes:       4,
		Overlay:      DefaultConfig(ModeAnonymous),
		Faults:       faults.Plan{Churn: faults.ChurnFraction(0.2, 2*time.Second)},
		ProbeRetries: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if total := res.TruePos + res.FalsePos + res.TrueNeg + res.FalseNeg; total != 6 {
		t.Errorf("classified %d neighbors, want all 6", total)
	}
	if res.Faults.Outages == 0 {
		t.Error("20% churn produced no outages")
	}
}

// TestFaultSweepsDeterministicAcrossWorkers asserts the acceptance
// criterion on both new sweep families: identical seed + plan produce
// byte-identical JSON at workers 1, 4, and NumCPU.
func TestFaultSweepsDeterministicAcrossWorkers(t *testing.T) {
	sc := tinySweepConfig()
	sc.ProbeRetries = 2
	for _, sw := range []experiment.Sweep{
		LossSweep(sc, 2, []float64{0, 0.3}),
		ChurnSweep(sc, 2, []float64{0, 0.2}),
	} {
		var blobs [][]byte
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			series, err := experiment.Runner{Workers: workers}.Run(context.Background(), sw)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", sw.Name, workers, err)
			}
			b, err := series.JSON()
			if err != nil {
				t.Fatal(err)
			}
			blobs = append(blobs, b)
		}
		for i := 1; i < len(blobs); i++ {
			if !bytes.Equal(blobs[0], blobs[i]) {
				t.Errorf("%s: worker-count run %d produced different bytes", sw.Name, i)
			}
		}
	}
}

// TestLossSweepDegradesCompleteness: more loss cannot increase the
// answered fraction, and the lossless point stays perfect. It runs at
// the degradation series' probe budget (8): at 4 probes a true source's
// fastest response still misses the threshold with probability
// ~0.43^4 ≈ 3.5%, so a perfect lossless point would rest on the seed's
// luck.
func TestLossSweepDegradesCompleteness(t *testing.T) {
	sc := tinySweepConfig()
	sc.Reps = 3
	sc.ProbeRetries = 2
	series, err := experiment.Runner{}.Run(context.Background(), LossSweep(sc, 8, []float64{0, 0.4}))
	if err != nil {
		t.Fatal(err)
	}
	clean := series.Points[0].Metric("answered").Mean
	lossy := series.Points[1].Metric("answered").Mean
	if clean != 1 {
		t.Errorf("answered at 0%% loss = %v, want 1", clean)
	}
	if lossy >= clean {
		t.Errorf("answered did not degrade: %v -> %v", clean, lossy)
	}
	if acc := series.Points[0].Metric("accuracy").Mean; acc != 1 {
		t.Errorf("accuracy at 0%% loss = %v, want 1", acc)
	}
}
