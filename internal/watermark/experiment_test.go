package watermark

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"lawgate/internal/capture"
	"lawgate/internal/legal"
)

func TestExperimentGuiltyDetected(t *testing.T) {
	ec := DefaultExperimentConfig()
	res, err := RunExperiment(ec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Errorf("watermark on guilty suspect not detected: Z = %.2f", res.Watermark.Z)
	}
	if res.Watermark.BER > 0.25 {
		t.Errorf("BER = %.2f on guilty suspect", res.Watermark.BER)
	}
	if res.SuspectPackets == 0 || res.ServerPackets == 0 {
		t.Errorf("taps empty: suspect=%d server=%d", res.SuspectPackets, res.ServerPackets)
	}
	// The legal half: rate collection needed only a court order.
	if res.RequiredProcess != legal.ProcessCourtOrder {
		t.Errorf("required process = %v, want court order", res.RequiredProcess)
	}
}

func TestExperimentInnocentNotDetected(t *testing.T) {
	ec := DefaultExperimentConfig()
	ec.Guilty = false
	ec.Seed = 5
	res, err := RunExperiment(ec)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected {
		t.Errorf("false positive on innocent suspect: Z = %.2f", res.Watermark.Z)
	}
}

func TestExperimentInsufficientProcessRefused(t *testing.T) {
	// Without at least pen/trap-class process the strict gate refuses
	// the ISP-side meter: the collection cannot lawfully happen.
	ec := DefaultExperimentConfig()
	ec.HeldProcess = legal.ProcessNone
	_, err := RunExperiment(ec)
	if !errors.Is(err, capture.ErrUnauthorized) {
		t.Fatalf("err = %v, want capture.ErrUnauthorized", err)
	}
}

func TestExperimentDeterministic(t *testing.T) {
	ec := DefaultExperimentConfig()
	a, err := RunExperiment(ec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunExperiment(ec)
	if err != nil {
		t.Fatal(err)
	}
	if a.Watermark.Z != b.Watermark.Z || a.SuspectPackets != b.SuspectPackets {
		t.Errorf("same seed must reproduce: Z %.3f vs %.3f", a.Watermark.Z, b.Watermark.Z)
	}
}

func TestExperimentSurvivesHeavyNoise(t *testing.T) {
	// Processing gain: detection holds with cross traffic at twice the
	// signal rate.
	ec := DefaultExperimentConfig()
	ec.NoiseRate = 2.0
	ec.Seed = 9
	res, err := RunExperiment(ec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Errorf("watermark lost under 2x cross traffic: Z = %.2f", res.Watermark.Z)
	}
}

func TestExperimentLongerCodeStrongerDetection(t *testing.T) {
	// The "long PN code" claim: a longer code yields a larger detection
	// statistic at the same noise level.
	short := DefaultExperimentConfig()
	short.CodeDegree = 5 // 31 chips
	short.NoiseRate = 1.5
	long := short
	long.CodeDegree = 8 // 255 chips
	resShort, err := RunExperiment(short)
	if err != nil {
		t.Fatal(err)
	}
	resLong, err := RunExperiment(long)
	if err != nil {
		t.Fatal(err)
	}
	if resLong.Watermark.Z <= resShort.Watermark.Z {
		t.Errorf("Z(255 chips) = %.2f not above Z(31 chips) = %.2f",
			resLong.Watermark.Z, resShort.Watermark.Z)
	}
}

// TestSubBinChipRejected: a chip shorter than 4 ns leaves the analysis a
// zero-length quarter-chip bin, and any chip under minChip would size
// the analysis by 1/chip beyond maxDelayBins, so every entry point must
// refuse both before the simulation allocates anything.
func TestSubBinChipRejected(t *testing.T) {
	for _, chip := range []time.Duration{1, 3, 8, 40 * time.Microsecond} {
		ec := DefaultExperimentConfig()
		ec.ChipDuration = chip
		lc := DefaultLineupConfig()
		lc.ChipDuration = chip
		sc := DefaultScaleConfig()
		for _, tc := range []struct {
			name string
			run  func() error
			want error
		}{
			{"RunExperiment", func() error { _, err := RunExperiment(ec); return err }, ErrBadExperiment},
			{"RunLineup", func() error { _, err := RunLineup(lc); return err }, ErrBadLineup},
			{"RunScaleExperiment", func() error {
				_, err := RunScaleExperiment(ec, sc, sc.HostsPerCampus)
				return err
			}, ErrBadExperiment},
		} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err := tc.run()
			runtime.ReadMemStats(&after)
			if !errors.Is(err, tc.want) {
				t.Errorf("%s with %v chips: err = %v, want %v", tc.name, chip, err, tc.want)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d >= 1<<20 {
				t.Errorf("%s with %v chips allocated %d bytes before rejecting", tc.name, chip, d)
			}
		}
	}
}

// TestDelayBudgetBoundary pins where the analysis budget cuts off: a
// 400 µs chip searches exactly maxDelayBins bins and is accepted, a
// 399 µs chip is not.
func TestDelayBudgetBoundary(t *testing.T) {
	ec := DefaultExperimentConfig()
	for chip, ok := range map[time.Duration]bool{
		ec.ChipDuration:        true,
		400 * time.Microsecond: true,
		399 * time.Microsecond: false,
	} {
		_, err := trialParams(ec.CodeDegree, ec.Bits, chip, ec.Amplitude, ec.BaseGap, ErrBadExperiment)
		if (err == nil) != ok {
			t.Errorf("chip %v: err = %v, want accepted = %v", chip, err, ok)
		}
	}
}

func TestExperimentValidation(t *testing.T) {
	ec := DefaultExperimentConfig()
	ec.Bits = 0
	if _, err := RunExperiment(ec); !errors.Is(err, ErrBadExperiment) {
		t.Errorf("err = %v, want ErrBadExperiment", err)
	}
	ec = DefaultExperimentConfig()
	ec.CodeDegree = 99
	if _, err := RunExperiment(ec); !errors.Is(err, ErrBadDegree) {
		t.Errorf("err = %v, want ErrBadDegree", err)
	}
	ec = DefaultExperimentConfig()
	ec.Amplitude = 3
	if _, err := RunExperiment(ec); err == nil {
		t.Error("invalid amplitude accepted")
	}
}

func TestExperimentSurvivesPacketLoss(t *testing.T) {
	// Failure injection: 2% loss per link (~8% end to end over four
	// hops) thins the counts uniformly; despreading tolerates it.
	ec := DefaultExperimentConfig()
	ec.Loss = 0.02
	ec.Seed = 21
	res, err := RunExperiment(ec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Errorf("watermark lost under 2%% per-link loss: Z = %.2f", res.Watermark.Z)
	}
}

func TestExperimentHeavyLossDegradesZ(t *testing.T) {
	clean := DefaultExperimentConfig()
	clean.Seed = 22
	lossy := clean
	lossy.Loss = 0.20
	resClean, err := RunExperiment(clean)
	if err != nil {
		t.Fatal(err)
	}
	resLossy, err := RunExperiment(lossy)
	if err != nil {
		t.Fatal(err)
	}
	if resLossy.Watermark.Z >= resClean.Watermark.Z {
		t.Errorf("Z under 20%% loss (%.2f) not below clean Z (%.2f)",
			resLossy.Watermark.Z, resClean.Watermark.Z)
	}
}

func TestExperimentSurvivesBandwidthConstraint(t *testing.T) {
	// 20 Mbps links: serialization adds correlated queueing delay but
	// leaves headroom above the watermark's ~3 Mbps peak; the rate
	// signal survives.
	ec := DefaultExperimentConfig()
	ec.BandwidthBps = 20_000_000
	ec.Seed = 33
	res, err := RunExperiment(ec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected {
		t.Errorf("watermark lost under 20 Mbps links: Z = %.2f", res.Watermark.Z)
	}
}

func TestExperimentSaturationDegradesZ(t *testing.T) {
	// Near-saturation links clip the high-rate chips: detection margin
	// must drop relative to unconstrained links.
	free := DefaultExperimentConfig()
	free.Seed = 34
	tight := free
	tight.BandwidthBps = 2_500_000 // below the ~2.9 Mbps modulated peak
	resFree, err := RunExperiment(free)
	if err != nil {
		t.Fatal(err)
	}
	resTight, err := RunExperiment(tight)
	if err != nil {
		t.Fatal(err)
	}
	if resTight.Watermark.Z >= resFree.Watermark.Z {
		t.Errorf("Z under saturation (%.2f) not below unconstrained Z (%.2f)",
			resTight.Watermark.Z, resFree.Watermark.Z)
	}
}
