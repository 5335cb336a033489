package watermark

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func testParams(t *testing.T) Params {
	t.Helper()
	code, err := MSequence(7)
	if err != nil {
		t.Fatal(err)
	}
	return Params{
		Code:         code,
		Bits:         []int8{1, -1, 1, -1},
		ChipDuration: 20 * time.Millisecond,
		Amplitude:    0.3,
		BaseGap:      2 * time.Millisecond,
		PacketSize:   400,
	}
}

// synthCounts builds a count series carrying the watermark at the given
// bin offset with the given base count per bin and additive noise sigma.
func synthCounts(p Params, bin time.Duration, offset, totalBins int, base float64, sigma float64, seed int64) []int {
	r := rand.New(rand.NewSource(seed))
	bpc := int(p.ChipDuration / bin)
	nChips := len(p.Bits) * len(p.Code)
	counts := make([]int, totalBins)
	for i := range counts {
		v := base
		chipIdx := (i - offset) / bpc
		if i >= offset && chipIdx < nChips {
			s := float64(int(p.Bits[chipIdx/len(p.Code)]) * int(p.Code[chipIdx%len(p.Code)]))
			v *= 1 + p.Amplitude*s
		}
		v += r.NormFloat64() * sigma
		if v < 0 {
			v = 0
		}
		counts[i] = int(math.Round(v))
	}
	return counts
}

func TestDetectorCleanSignal(t *testing.T) {
	p := testParams(t)
	bin := p.ChipDuration / 4
	nBins := len(p.Bits)*len(p.Code)*4 + 40
	counts := synthCounts(p, bin, 8, nBins, 10, 0, 1)
	d, err := NewDetector(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Score(counts, bin, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected(DefaultZThreshold) {
		t.Errorf("clean signal not detected: Z = %.2f", res.Z)
	}
	if res.OffsetBins != 8 {
		t.Errorf("offset = %d, want 8", res.OffsetBins)
	}
	if res.BitErrors != 0 {
		t.Errorf("bit errors = %d on clean signal", res.BitErrors)
	}
	if res.Correlation < 0.95 {
		t.Errorf("correlation = %.3f on clean signal", res.Correlation)
	}
}

func TestDetectorNoisySignal(t *testing.T) {
	p := testParams(t)
	bin := p.ChipDuration / 4
	nBins := len(p.Bits)*len(p.Code)*4 + 40
	// Noise sigma comparable to the signal swing (A*base = 3).
	counts := synthCounts(p, bin, 4, nBins, 10, 3, 2)
	d, err := NewDetector(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Score(counts, bin, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Detected(DefaultZThreshold) {
		t.Errorf("noisy signal not detected: Z = %.2f (processing gain should carry it)", res.Z)
	}
}

func TestDetectorNullSignal(t *testing.T) {
	p := testParams(t)
	bin := p.ChipDuration / 4
	nBins := len(p.Bits)*len(p.Code)*4 + 40
	r := rand.New(rand.NewSource(3))
	counts := make([]int, nBins)
	for i := range counts {
		counts[i] = 10 + r.Intn(7) // unwatermarked traffic
	}
	d, err := NewDetector(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := d.Score(counts, bin, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected(DefaultZThreshold) {
		t.Errorf("false positive on unwatermarked traffic: Z = %.2f", res.Z)
	}
}

func TestDetectorErrors(t *testing.T) {
	p := testParams(t)
	d, err := NewDetector(p)
	if err != nil {
		t.Fatal(err)
	}
	// Bin not dividing chip duration.
	if _, err := d.Score(make([]int, 10000), 3*time.Millisecond, 0); !errors.Is(err, ErrBinMismatch) {
		t.Errorf("bin mismatch err = %v", err)
	}
	if _, err := d.Score(make([]int, 10000), 0, 0); !errors.Is(err, ErrBinMismatch) {
		t.Errorf("zero bin err = %v", err)
	}
	// Series too short.
	if _, err := d.Score(make([]int, 10), p.ChipDuration/4, 0); !errors.Is(err, ErrTooShort) {
		t.Errorf("short series err = %v", err)
	}
}

func TestDetectorNegativeOffsetClamped(t *testing.T) {
	p := testParams(t)
	bin := p.ChipDuration
	d, err := NewDetector(p)
	if err != nil {
		t.Fatal(err)
	}
	counts := synthCounts(p, bin, 0, len(p.Bits)*len(p.Code)+1, 10, 0, 1)
	res, err := d.Score(counts, bin, -5)
	if err != nil {
		t.Fatal(err)
	}
	if res.OffsetBins != 0 {
		t.Errorf("offset = %d", res.OffsetBins)
	}
}

func TestParamsValidate(t *testing.T) {
	base := testParams(t)
	tests := []struct {
		name   string
		mutate func(*Params)
	}{
		{"empty code", func(p *Params) { p.Code = nil }},
		{"no bits", func(p *Params) { p.Bits = nil }},
		{"bad bit", func(p *Params) { p.Bits = []int8{1, 0} }},
		{"zero chip", func(p *Params) { p.ChipDuration = 0 }},
		{"zero amplitude", func(p *Params) { p.Amplitude = 0 }},
		{"amplitude 1", func(p *Params) { p.Amplitude = 1 }},
		{"zero gap", func(p *Params) { p.BaseGap = 0 }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			tt.mutate(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid params accepted")
			}
		})
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	wantDur := time.Duration(4*127) * 20 * time.Millisecond
	if got := base.Duration(); got != wantDur {
		t.Errorf("Duration = %v, want %v", got, wantDur)
	}
}

func TestEmbedderModulatesGaps(t *testing.T) {
	p := testParams(t)
	e, err := NewEmbedder(p)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(1))
	fast := time.Duration(float64(p.BaseGap) / (1 + p.Amplitude))
	slow := time.Duration(float64(p.BaseGap) / (1 - p.Amplitude))
	sawFast, sawSlow := false, false
	for e.Elapsed() < p.Duration() {
		gap := e.NextGap(r)
		switch gap {
		case fast:
			sawFast = true
		case slow:
			sawSlow = true
		default:
			t.Fatalf("gap %v is neither fast (%v) nor slow (%v)", gap, fast, slow)
		}
	}
	if !sawFast || !sawSlow {
		t.Errorf("modulation incomplete: fast=%v slow=%v", sawFast, sawSlow)
	}
	// After the watermark, the flow reverts to the base gap.
	if gap := e.NextGap(r); gap != p.BaseGap {
		t.Errorf("post-watermark gap = %v, want %v", gap, p.BaseGap)
	}
	if e.PacketSize(r) != 400 {
		t.Errorf("packet size = %d", e.PacketSize(r))
	}
}

func TestNewEmbedderValidates(t *testing.T) {
	p := testParams(t)
	p.Amplitude = 2
	if _, err := NewEmbedder(p); err == nil {
		t.Error("invalid params accepted")
	}
	if _, err := NewDetector(p); err == nil {
		t.Error("invalid params accepted by detector")
	}
}

func TestBaselineCorrelation(t *testing.T) {
	// A lagged copy correlates perfectly at the right lag.
	r := rand.New(rand.NewSource(4))
	tx := make([]int, 200)
	for i := range tx {
		tx[i] = 10 + r.Intn(20)
	}
	lag := 7
	rx := make([]int, 220)
	copy(rx[lag:], tx)
	corr, gotLag := BaselineCorrelation(tx[:190], rx, 20)
	if gotLag != lag {
		t.Errorf("lag = %d, want %d", gotLag, lag)
	}
	if corr < 0.99 {
		t.Errorf("correlation = %.3f, want ~1", corr)
	}
	// Uncorrelated series: low correlation.
	other := make([]int, 220)
	for i := range other {
		other[i] = 10 + r.Intn(20)
	}
	corr, _ = BaselineCorrelation(tx[:190], other, 20)
	if corr > 0.4 {
		t.Errorf("uncorrelated correlation = %.3f", corr)
	}
}

func TestBaselineCorrelationEdgeCases(t *testing.T) {
	if corr, lag := BaselineCorrelation(nil, []int{1, 2}, 5); corr != 0 || lag != 0 {
		t.Errorf("empty tx: %v, %d", corr, lag)
	}
	if corr, lag := BaselineCorrelation([]int{1, 2}, nil, 5); corr != 0 || lag != 0 {
		t.Errorf("empty rx: %v, %d", corr, lag)
	}
	// Constant series → zero correlation, not NaN.
	if corr, _ := BaselineCorrelation([]int{5, 5, 5, 5}, []int{5, 5, 5, 5}, 0); corr != 0 {
		t.Errorf("constant series corr = %v", corr)
	}
	if corr, _ := BaselineCorrelation([]int{1, 2}, []int{1}, 10); corr != 0 {
		t.Errorf("too-short rx corr = %v", corr)
	}
}

// baselineCorrelationPerLag is BaselineCorrelation as it was before its
// buffers were sized once: two fresh slices per lag searched.
func baselineCorrelationPerLag(tx, rx []int, maxLag int) (float64, int) {
	if len(tx) == 0 || len(rx) == 0 {
		return 0, 0
	}
	if maxLag < 0 {
		maxLag = 0
	}
	best, bestLag := math.Inf(-1), 0
	for lag := 0; lag <= maxLag; lag++ {
		n := len(tx)
		if len(rx)-lag < n {
			n = len(rx) - lag
		}
		if n < 2 {
			break
		}
		a := make([]float64, n)
		b := make([]float64, n)
		for i := 0; i < n; i++ {
			a[i] = float64(tx[i])
			b[i] = float64(rx[i+lag])
		}
		if rho := pearson(a, b); rho > best {
			best, bestLag = rho, lag
		}
	}
	if math.IsInf(best, -1) {
		return 0, 0
	}
	return best, bestLag
}

// TestBaselineCorrelationMatchesPerLag checks BaselineCorrelation bit
// for bit on (rho, lag) against the per-lag-allocating version it
// replaced, over seeded random series of many lengths, lag bounds past
// both lengths, overlaps under two points and empty inputs, and pins it
// to its two buffers.
func TestBaselineCorrelationMatchesPerLag(t *testing.T) {
	r := rand.New(rand.NewSource(24))
	series := func(n int) []int {
		s := make([]int, n)
		for i := range s {
			s[i] = r.Intn(40)
		}
		return s
	}
	lengths := []int{0, 1, 2, 3, 7, 64, 190, 333}
	for _, nt := range lengths {
		for _, nr := range lengths {
			tx, rx := series(nt), series(nr)
			// A lagged copy of tx inside rx gives the search a clear peak.
			if nr > 5 {
				copy(rx[5:], tx)
			}
			for _, maxLag := range []int{-3, 0, 1, 9, nt + nr + 4} {
				rho, lag := BaselineCorrelation(tx, rx, maxLag)
				wantRho, wantLag := baselineCorrelationPerLag(tx, rx, maxLag)
				if math.Float64bits(rho) != math.Float64bits(wantRho) || lag != wantLag {
					t.Errorf("len(tx)=%d len(rx)=%d maxLag=%d: got (%v, %d), want (%v, %d)",
						nt, nr, maxLag, rho, lag, wantRho, wantLag)
				}
			}
		}
	}
	tx, rx := series(400), series(450)
	allocs := testing.AllocsPerRun(100, func() { BaselineCorrelation(tx, rx, 60) })
	if allocs != 2 {
		t.Errorf("BaselineCorrelation allocs/op = %v, want 2 (its two buffers)", allocs)
	}
}

func TestPearson(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := pearson(a, a); math.Abs(got-1) > 1e-12 {
		t.Errorf("self correlation = %v", got)
	}
	b := []float64{4, 3, 2, 1}
	if got := pearson(a, b); math.Abs(got+1) > 1e-12 {
		t.Errorf("anti correlation = %v", got)
	}
	if got := pearson(a, []float64{1, 2}); got != 0 {
		t.Errorf("length mismatch = %v", got)
	}
	if got := pearson(nil, nil); got != 0 {
		t.Errorf("empty = %v", got)
	}
}

func TestCrossCodeRejection(t *testing.T) {
	// A flow watermarked with one m-sequence must not trigger a
	// detector despreading with a different code: the low cross-
	// correlation of distinct PN codes is what lets multiple
	// simultaneous traces coexist.
	pA := testParams(t)
	codeB, err := MSequence(7)
	if err != nil {
		t.Fatal(err)
	}
	// Shift code B so it differs from code A (same degree, rotated:
	// m-sequence autocorrelation at nonzero shift is -1).
	rotated := append(append(Code{}, codeB[40:]...), codeB[:40]...)
	pB := pA
	pB.Code = rotated

	bin := pA.ChipDuration / 4
	nBins := len(pA.Bits)*len(pA.Code)*4 + 40
	counts := synthCounts(pA, bin, 8, nBins, 10, 0, 5) // carries code A

	dB, err := NewDetector(pB)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dB.Score(counts, bin, 20)
	if err != nil {
		t.Fatal(err)
	}
	if res.Detected(DefaultZThreshold) {
		t.Errorf("detector with rotated code matched foreign watermark: Z = %.2f", res.Z)
	}
	// Sanity: the right code still detects.
	dA, err := NewDetector(pA)
	if err != nil {
		t.Fatal(err)
	}
	own, err := dA.Score(counts, bin, 20)
	if err != nil {
		t.Fatal(err)
	}
	if !own.Detected(DefaultZThreshold) {
		t.Errorf("matched code failed: Z = %.2f", own.Z)
	}
}

func TestROC(t *testing.T) {
	guilty := []float64{10, 12, 15, 20}
	innocent := []float64{0.5, 1, 2, 3}
	curve := ROC(guilty, innocent)
	if len(curve) == 0 {
		t.Fatal("empty curve")
	}
	// Monotone: TPR and FPR never increase as the threshold rises.
	for i := 1; i < len(curve); i++ {
		if curve[i].Threshold < curve[i-1].Threshold {
			t.Fatal("thresholds not sorted")
		}
		if curve[i].TPR > curve[i-1].TPR || curve[i].FPR > curve[i-1].FPR {
			t.Fatalf("rates increased with threshold at %d", i)
		}
	}
	// At threshold 0 everything fires; with separated samples there is
	// a threshold with TPR=1 and FPR=0.
	if curve[0].TPR != 1 || curve[0].FPR != 1 {
		t.Errorf("zero-threshold point = %+v", curve[0])
	}
	var perfect bool
	for _, pt := range curve {
		if pt.TPR == 1 && pt.FPR == 0 {
			perfect = true
		}
	}
	if !perfect {
		t.Error("separated samples must admit a perfect operating point")
	}
	if ROC(nil, innocent) != nil || ROC(guilty, nil) != nil {
		t.Error("degenerate inputs must yield nil")
	}
}
