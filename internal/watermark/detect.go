package watermark

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// Detection errors.
var (
	// ErrBinMismatch: the chip duration is not a multiple of the count
	// bin.
	ErrBinMismatch = errors.New("watermark: chip duration not a multiple of count bin")
	// ErrTooShort: the count series does not cover the watermark.
	ErrTooShort = errors.New("watermark: count series shorter than watermark")
)

// Result is one detection attempt's outcome.
type Result struct {
	// Correlation is the Pearson correlation between the despread chip
	// counts and the expected signed-chip sequence, at the best offset.
	Correlation float64
	// Z is the detection statistic: Correlation × sqrt(#chips). Under
	// the no-watermark null it is approximately standard normal, so a
	// threshold of 4 yields a theoretical false-positive rate around
	// 3×10⁻⁵ per offset examined.
	Z float64
	// OffsetBins is the alignment (in count bins) that maximized the
	// correlation.
	OffsetBins int
	// BitErrors counts watermark bits decoded incorrectly at the best
	// offset; BER is the error fraction over the covered bits.
	BitErrors int
	BER       float64
	// Chips is how many watermark chips the capture actually covered;
	// Coverage is the covered fraction of the full watermark. A partial
	// capture (expired device, truncated stream) scores the covered
	// prefix with Z scaled by sqrt(Chips), so lost evidence shows up as
	// an explicitly reduced detection confidence rather than a corrupted
	// correlation.
	Chips    int
	Coverage float64
}

// Detected applies the decision threshold to the Z statistic.
func (r Result) Detected(zThreshold float64) bool { return r.Z >= zThreshold }

// DefaultZThreshold is a conservative detection threshold.
const DefaultZThreshold = 4.0

// Detector despreads packet-count series against a known watermark.
type Detector struct {
	p Params
}

// NewDetector validates params and returns a Detector. The detector knows
// the code AND the payload bits: law enforcement chose both, so detection
// is a matched-filter test, not blind decoding.
func NewDetector(p Params) (*Detector, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return &Detector{p: p}, nil
}

// Score despreads counts (packet counts per bin) against the watermark,
// searching start offsets 0..maxOffsetBins to absorb network delay, and
// returns the best-aligned result.
//
// A series shorter than the full watermark degrades gracefully: the
// covered chip prefix is scored on its own, with the Z statistic scaled
// by sqrt(covered chips) and BER computed over the fully covered bits,
// so a truncated capture reports honestly reduced confidence. Only a
// capture too short to cover even one watermark bit is an error.
func (d *Detector) Score(counts []int, bin time.Duration, maxOffsetBins int) (Result, error) {
	if bin <= 0 || d.p.ChipDuration%bin != 0 {
		return Result{}, fmt.Errorf("%w: chip %v, bin %v", ErrBinMismatch, d.p.ChipDuration, bin)
	}
	bpc := int(d.p.ChipDuration / bin)
	nChips := len(d.p.Bits) * len(d.p.Code)
	if maxOffsetBins < 0 {
		maxOffsetBins = 0
	}
	// Chips the capture covers at the deepest offset searched; bits must
	// be whole so per-bit despreading stays aligned.
	avail := (len(counts) - maxOffsetBins) / bpc
	if avail > nChips {
		avail = nChips
	}
	coveredBits := avail / len(d.p.Code)
	scored := coveredBits * len(d.p.Code)
	if coveredBits < 1 {
		return Result{}, fmt.Errorf("%w: %d bins cover %d of %d chips — not even one full bit (%d chips) at offset depth %d",
			ErrTooShort, len(counts), avail, nChips, len(d.p.Code), maxOffsetBins)
	}

	expected := make([]float64, scored)
	for i := range expected {
		expected[i] = float64(int(d.p.Bits[i/len(d.p.Code)]) * int(d.p.Code[i%len(d.p.Code)]))
	}

	best := Result{Correlation: math.Inf(-1)}
	chips := make([]float64, scored)
	for off := 0; off <= maxOffsetBins; off++ {
		for i := 0; i < scored; i++ {
			s := 0
			for j := 0; j < bpc; j++ {
				s += counts[off+i*bpc+j]
			}
			chips[i] = float64(s)
		}
		rho := pearson(chips, expected)
		if rho > best.Correlation {
			best.Correlation = rho
			best.OffsetBins = off
			best.BitErrors = d.bitErrors(chips, coveredBits)
		}
	}
	best.Z = best.Correlation * math.Sqrt(float64(scored))
	best.BER = float64(best.BitErrors) / float64(coveredBits)
	best.Chips = scored
	best.Coverage = float64(scored) / float64(nChips)
	return best, nil
}

// bitErrors decodes the first `bits` payload bits by per-bit
// despreading and counts mismatches against the known payload.
func (d *Detector) bitErrors(chips []float64, bits int) int {
	l := len(d.p.Code)
	mean := meanOf(chips)
	errs := 0
	for b := 0; b < bits; b++ {
		var corr float64
		for j := 0; j < l; j++ {
			corr += float64(d.p.Code[j]) * (chips[b*l+j] - mean)
		}
		decoded := int8(1)
		if corr < 0 {
			decoded = -1
		}
		if decoded != d.p.Bits[b] {
			errs++
		}
	}
	return errs
}

// BaselineCorrelation is the naive comparator: the Pearson correlation
// between the transmit-side and receive-side packet-count series, searched
// over lags 0..maxLag (rx delayed relative to tx). It returns the best
// correlation and the lag achieving it. This is the "other methods"
// approach the paper's Section IV-B claims DSSS outperforms: it needs
// simultaneous two-point collection and has no processing gain against
// cross traffic.
func BaselineCorrelation(tx, rx []int, maxLag int) (float64, int) {
	// The overlap is longest at lag 0 and shrinks with the lag, so both
	// series are sized once and resliced per lag; tx's prefix never
	// changes, so it is converted once too.
	n0 := min(len(tx), len(rx))
	if n0 < 2 {
		return 0, 0
	}
	if maxLag < 0 {
		maxLag = 0
	}
	a, b := make([]float64, n0), make([]float64, n0)
	for i := range a {
		a[i] = float64(tx[i])
	}
	best, bestLag := math.Inf(-1), 0
	for lag := 0; lag <= maxLag; lag++ {
		n := min(len(tx), len(rx)-lag)
		if n < 2 {
			break
		}
		for i := 0; i < n; i++ {
			b[i] = float64(rx[i+lag])
		}
		if rho := pearson(a[:n], b[:n]); rho > best {
			best, bestLag = rho, lag
		}
	}
	if math.IsInf(best, -1) {
		return 0, 0
	}
	return best, bestLag
}

// pearson returns the Pearson correlation coefficient, or 0 when either
// series is constant.
func pearson(a, b []float64) float64 {
	n := len(a)
	if n == 0 || n != len(b) {
		return 0
	}
	ma, mb := meanOf(a), meanOf(b)
	var num, va, vb float64
	for i := 0; i < n; i++ {
		da, db := a[i]-ma, b[i]-mb
		num += da * db
		va += da * da
		vb += db * db
	}
	if va == 0 || vb == 0 {
		return 0
	}
	return num / math.Sqrt(va*vb)
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ROCPoint is one operating point of the detector.
type ROCPoint struct {
	// Threshold is the Z cutoff.
	Threshold float64
	// TPR and FPR are the rates the guilty and innocent score samples
	// produce at that cutoff.
	TPR, FPR float64
}

// ROC sweeps thresholds over the union of observed scores, producing the
// detector's operating curve from guilty-trial and innocent-trial Z
// samples. Points are ordered by ascending threshold.
func ROC(guilty, innocent []float64) []ROCPoint {
	if len(guilty) == 0 || len(innocent) == 0 {
		return nil
	}
	thresholds := make([]float64, 0, len(guilty)+len(innocent)+1)
	thresholds = append(thresholds, 0)
	thresholds = append(thresholds, guilty...)
	thresholds = append(thresholds, innocent...)
	sort.Float64s(thresholds)
	out := make([]ROCPoint, 0, len(thresholds))
	for _, th := range thresholds {
		var tp, fp int
		for _, z := range guilty {
			if z >= th {
				tp++
			}
		}
		for _, z := range innocent {
			if z >= th {
				fp++
			}
		}
		out = append(out, ROCPoint{
			Threshold: th,
			TPR:       float64(tp) / float64(len(guilty)),
			FPR:       float64(fp) / float64(len(innocent)),
		})
	}
	return out
}
