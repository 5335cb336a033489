package lawgate_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/p2p"
	"lawgate/internal/watermark"
)

// goldenSweepSHA256 pins the sha256 of goldenSweeps' JSON series. The
// sweeps exercise the whole simulated packet path — event heap, packet
// delivery, sharded barrier, onion-layer crypto — so an optimisation of
// any of those layers must leave this hash unchanged. A deliberate model
// change that moves results updates the hash and says why.
const goldenSweepSHA256 = "a4f953e8d37009fa19d30700bb9ae8ea84459401cb8305f97a02792a52715feb"

// goldenSweeps is a reduced sweep grid on a fixed seed: the E2 probe and
// delay series and the E3 noise and lineup series on the classic engine,
// then one point each of the p2p and watermark scale series on the
// sharded engine at two partitions.
func goldenSweeps() []experiment.Sweep {
	sc := p2p.SweepConfig{
		Neighbors: 16,
		Sources:   6,
		Reps:      2,
		Seed:      experiment.DeriveSeed(41, 3),
		Overlay:   p2p.DefaultConfig(p2p.ModeAnonymous),
	}
	wseed := experiment.DeriveSeed(41, 4)
	base := watermark.DefaultExperimentConfig()
	base.Bits = 2
	lineup := watermark.DefaultLineupConfig()
	lineup.Bits = 2
	ps := p2p.DefaultScaleConfig()
	ps.Reps = 1
	ps.Seed = experiment.DeriveSeed(41, 5)
	ps.Partitions = 2
	ps.Workers = 2
	ws := watermark.DefaultScaleConfig()
	ws.Partitions = 2
	ws.Workers = 2
	return []experiment.Sweep{
		p2p.ProbeSweep(sc, []int{1, 8}),
		p2p.DelaySweep(sc, 8, []time.Duration{40 * time.Millisecond, 150 * time.Millisecond}),
		watermark.NoiseSweep(base, 1, wseed, []float64{0.5, 2}),
		watermark.LineupSweep(lineup, 1, wseed, []int{2, 4}),
		p2p.ScaleSweep(ps, []int{200}),
		watermark.ScaleSweep(base, ws, 1, experiment.DeriveSeed(41, 6), []int{32}),
	}
}

// TestSweepGoldenHash runs goldenSweeps and compares the sha256 of their
// concatenated JSON series with goldenSweepSHA256: outputs must be
// byte-identical across releases, not only within one run.
func TestSweepGoldenHash(t *testing.T) {
	runner := experiment.Runner{Workers: 2}
	h := sha256.New()
	for _, sw := range goldenSweeps() {
		series, err := runner.Run(context.Background(), sw)
		if err != nil {
			t.Fatalf("sweep %s: %v", sw.Name, err)
		}
		js, err := series.JSON()
		if err != nil {
			t.Fatal(err)
		}
		h.Write(js)
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != goldenSweepSHA256 {
		t.Fatalf("sweep series sha256 = %s, want %s: simulation output changed", got, goldenSweepSHA256)
	}
}
