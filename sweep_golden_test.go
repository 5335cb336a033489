package lawgate_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"
	"time"

	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/p2p"
	"lawgate/internal/watermark"
)

// goldenSweepSHA256 pins the sha256 of goldenSweeps' concatenated JSON
// series, and goldenSeriesSHA256 the sha256 of each series alone, in
// goldenSweeps order. The sweeps exercise the whole simulated packet
// path — event heap, packet delivery, sharded barrier, onion-layer
// crypto — so an optimisation of any of those layers must leave every
// hash unchanged. A deliberate model change that moves results updates
// the hashes of the series it moves, and only those, and says why.
//
// The three series re-pinned together with the combined hash moved when
// the serial experiments began running as one-partition runs of the
// partitioned engine: event tie-breaks became (origin node, per-node
// counter) keys, and overlay, link and traffic draws came from the
// partition's and the nodes' own streams instead of one simulator-wide
// one.
const goldenSweepSHA256 = "4c2e19b6dcbe55f91df8f3c3baeed4b52b3fd096c4d8a8d06d3cbb0277844ccf"

var goldenSeriesSHA256 = []struct{ sweep, sha256 string }{
	// Re-pinned: overlay delay draws come from the partition stream.
	{"p2p-probe-budget", "0ba17a6276e8bdfc5ec16cde2008609eaaab923448daf68baf304757e32522f2"},
	// Re-pinned: overlay delay draws come from the partition stream.
	{"p2p-delay-floor", "6d0b64f3dd8828c1fbca008e828a7faa118265478e791cc256d57e6ae557fa44"},
	// Re-pinned: cross-traffic and embedder gaps come from node and partition streams.
	{"watermark-noise", "e8affe62b27b08ccf11eb2c0d4ddadc3c9c96268d585fcef36f4163ecfaf1577"},
	// Unchanged: its correct/identified outcomes did not flip.
	{"watermark-lineup", "14c048108b6528a96ca31f78c9f145654244bfc3b3b5b7f27bb539e48d457abe"},
	{"p2p-swarm-scale", "0f63d7751bf9bcf0b8707a7f66a3e8decebf2c5cc1f253eb522243688725a24d"},
	{"watermark-load", "ecaffae5ce894740b9f48d74c41fb9a3bd8680bcedadc967596cb8b5698b4c78"},
}

// goldenSweeps is a reduced sweep grid on a fixed seed: the E2 probe and
// delay series and the E3 noise and lineup series, which run serially on
// one partition, then one point each of the p2p and watermark scale
// series at two partitions.
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

// TestSweepGoldenHash runs goldenSweeps and compares the sha256 of each
// series' JSON with goldenSeriesSHA256 and the sha256 of all of them,
// newline-joined, with goldenSweepSHA256: outputs must be byte-identical
// across releases, not only within one run.
func TestSweepGoldenHash(t *testing.T) {
	runner := experiment.Runner{Workers: 2}
	sweeps := goldenSweeps()
	if len(sweeps) != len(goldenSeriesSHA256) {
		t.Fatalf("%d golden sweeps, %d pinned series hashes", len(sweeps), len(goldenSeriesSHA256))
	}
	all := sha256.New()
	for i, sw := range sweeps {
		want := goldenSeriesSHA256[i]
		if sw.Name != want.sweep {
			t.Fatalf("golden sweep %d is %s, pinned hash is for %s", i, sw.Name, want.sweep)
		}
		series, err := runner.Run(context.Background(), sw)
		if err != nil {
			t.Fatalf("sweep %s: %v", sw.Name, err)
		}
		js, err := series.JSON()
		if err != nil {
			t.Fatal(err)
		}
		all.Write(js)
		all.Write([]byte{'\n'})
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:]); got != want.sha256 {
			t.Errorf("sweep %s series sha256 = %s, want %s: simulation output changed", sw.Name, got, want.sha256)
		}
	}
	if got := hex.EncodeToString(all.Sum(nil)); got != goldenSweepSHA256 {
		t.Fatalf("sweep series sha256 = %s, want %s: simulation output changed", got, goldenSweepSHA256)
	}
}

// goldenSeriesExtraSHA256 pins, in goldenExtraSweeps order, the sha256 of
// each series no goldenSweeps entry covers: the E3 code-length and
// amplitude series and the E2/E3 degradation series under the lossy
// fault profile. They share the trial stages goldenSweeps pins, so a
// refactor of those stages must leave these hashes unchanged too.
var goldenSeriesExtraSHA256 = []struct{ sweep, sha256 string }{
	{"watermark-code-length", "97af0362ed8a7bf3f0322e42db394a67bb29a16839cb8e0a14fcbb147d5069d7"},
	{"watermark-amplitude", "3b8c06c2f4fc324442139f29e63e9dc4b7d469104341ea5ca2d51216a0bfc7eb"},
	{"watermark-loss", "15f03c69dca0ed87e18d265e626f6211423aeec5ff14dacd3faa3aa2ae5ffc5a"},
	{"watermark-jitter", "f8cac98f494cd54aeba410ff78d62724b96fd1237e8cc57fb71163db3d49c7ed"},
	{"p2p-loss", "8963986ee3dd18580ce1d0698d68a1fd3a732365c22ed2d7b11eb6128946093e"},
	{"p2p-churn", "bad96802fb01984f3896f3713da04cd1ae0055e47443620e3ec0dae11efbb7c5"},
}

// goldenExtraSweeps is a small grid on a fixed seed: two points per
// series, a 2-bit watermark, and the lossy profile with the resilient
// probing the experiment commands use under faults.
func goldenExtraSweeps() []experiment.Sweep {
	lossy, err := faults.Profile("lossy")
	if err != nil {
		panic(err)
	}
	wseed := experiment.DeriveSeed(43, 4)
	base := watermark.DefaultExperimentConfig()
	base.Bits = 2
	degraded := base
	degraded.Faults = lossy
	sc := p2p.SweepConfig{
		Neighbors:    8,
		Sources:      3,
		Reps:         2,
		Seed:         experiment.DeriveSeed(43, 3),
		Overlay:      p2p.DefaultConfig(p2p.ModeAnonymous),
		Faults:       lossy,
		ProbeRetries: 2,
	}
	return []experiment.Sweep{
		watermark.CodeSweep(base, 1, wseed, []int{5, 6}),
		watermark.AmplitudeSweep(base, 1, wseed, []float64{0.1, 0.3}),
		watermark.LossSweep(degraded, 1, wseed, []float64{0, 0.2}),
		watermark.JitterSweep(degraded, 1, wseed, []time.Duration{0, 20 * time.Millisecond}),
		p2p.LossSweep(sc, 4, []float64{0, 0.3}),
		p2p.ChurnSweep(sc, 4, []float64{0, 0.2}),
	}
}

// TestSweepGoldenExtraHash compares the sha256 of each goldenExtraSweeps
// series' JSON with goldenSeriesExtraSHA256.
func TestSweepGoldenExtraHash(t *testing.T) {
	runner := experiment.Runner{Workers: 2}
	sweeps := goldenExtraSweeps()
	if len(sweeps) != len(goldenSeriesExtraSHA256) {
		t.Fatalf("%d golden sweeps, %d pinned series hashes", len(sweeps), len(goldenSeriesExtraSHA256))
	}
	for i, sw := range sweeps {
		want := goldenSeriesExtraSHA256[i]
		if sw.Name != want.sweep {
			t.Fatalf("golden sweep %d is %s, pinned hash is for %s", i, sw.Name, want.sweep)
		}
		series, err := runner.Run(context.Background(), sw)
		if err != nil {
			t.Fatalf("sweep %s: %v", sw.Name, err)
		}
		js, err := series.JSON()
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(js)
		if got := hex.EncodeToString(sum[:]); got != want.sha256 {
			t.Errorf("sweep %s series sha256 = %s, want %s: simulation output changed", sw.Name, got, want.sha256)
		}
	}
}
