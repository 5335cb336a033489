package watermark

import (
	"errors"
	"fmt"
	"time"

	"lawgate/internal/anonet"
	"lawgate/internal/capture"
	"lawgate/internal/legal"
	"lawgate/internal/netsim"
)

// ErrBadLineup is returned for invalid lineup parameters.
var ErrBadLineup = errors.New("watermark: invalid lineup config")

// LineupConfig parameterizes the paper's Section IV-B situation one in its
// real investigative shape: the seized server has many accounts, and law
// enforcement must identify WHICH of K candidate subscribers is the
// downloader. Every candidate's ISP link carries a rate meter (one court
// order names them all); only the watermark tells them apart.
type LineupConfig struct {
	// Seed drives all randomness.
	Seed int64
	// Suspects is the candidate count K.
	Suspects int
	// Guilty is the index of the actual downloader, or -1 when no
	// candidate is downloading (the all-innocent control).
	Guilty int
	// CodeDegree, Bits, ChipDuration, Amplitude, BaseGap shape the
	// watermark as in ExperimentConfig.
	CodeDegree   int
	Bits         int
	ChipDuration time.Duration
	Amplitude    float64
	BaseGap      time.Duration
	// NoiseRate is per-candidate cross traffic relative to base rate.
	NoiseRate float64
	// Jitter is per-link delay jitter.
	Jitter time.Duration
	// MaxSteps caps the simulator's event count; zero selects a
	// generous default.
	MaxSteps int64
}

// DefaultLineupConfig returns a 4-candidate lineup at the default
// experiment working point.
func DefaultLineupConfig() LineupConfig {
	ec := DefaultExperimentConfig()
	return LineupConfig{
		Seed:         1,
		Suspects:     4,
		Guilty:       0,
		CodeDegree:   ec.CodeDegree,
		Bits:         ec.Bits,
		ChipDuration: ec.ChipDuration,
		Amplitude:    ec.Amplitude,
		BaseGap:      ec.BaseGap,
		NoiseRate:    ec.NoiseRate,
		Jitter:       ec.Jitter,
	}
}

// LineupResult is one lineup trial's outcome.
type LineupResult struct {
	// Scores is the detection statistic Z per candidate.
	Scores []float64
	// Identified is the index of the candidate the detector names: the
	// highest Z at or above the threshold, or -1 when no candidate
	// clears it.
	Identified int
	// Correct reports whether Identified equals the configured guilty
	// index (-1 matching -1 for the all-innocent control).
	Correct bool
}

// RunLineup executes one lineup trial.
func RunLineup(lc LineupConfig) (LineupResult, error) {
	if lc.Suspects <= 0 || lc.Guilty < -1 || lc.Guilty >= lc.Suspects || lc.Bits <= 0 {
		return LineupResult{}, fmt.Errorf("%w: %+v", ErrBadLineup, lc)
	}
	params, err := trialParams(lc.CodeDegree, lc.Bits, lc.ChipDuration, lc.Amplitude, lc.BaseGap, ErrBadLineup)
	if err != nil {
		return LineupResult{}, err
	}

	sim := netsim.NewSimulator(lc.Seed)
	budget := lc.MaxSteps
	if budget == 0 {
		budget = defaultStepBudget
	}
	sim.SetStepBudget(budget)
	net := netsim.NewNetwork(sim)
	an := anonet.New(net)
	for _, id := range []netsim.NodeID{"entry", "middle", "exit"} {
		if _, err := an.AddRelay(id); err != nil {
			return LineupResult{}, err
		}
	}
	server, err := an.AddServer("seized-server")
	if err != nil {
		return LineupResult{}, err
	}
	link := netsim.Link{Latency: 5 * time.Millisecond, Jitter: lc.Jitter}
	for _, pair := range [][2]netsim.NodeID{
		{"entry", "middle"}, {"middle", "exit"}, {"exit", "seized-server"},
	} {
		if err := net.Connect(pair[0], pair[1], link); err != nil {
			return LineupResult{}, err
		}
	}

	streamEnd := params.Duration() + 500*time.Millisecond
	gate := capture.NewGate(true)
	meters := make([]*capture.Device, lc.Suspects)
	clients := make([]*anonet.Client, lc.Suspects)
	for i := 0; i < lc.Suspects; i++ {
		id := netsim.NodeID(fmt.Sprintf("suspect-%d", i))
		client, err := an.AddClient(id)
		if err != nil {
			return LineupResult{}, err
		}
		clients[i] = client
		if err := net.Connect(id, "entry", link); err != nil {
			return LineupResult{}, err
		}
		meter, err := capture.New(capture.RateMeter, capture.Placement{
			Node:   id,
			Actor:  legal.ActorGovernment,
			Source: legal.SourceThirdPartyNetwork,
		}, legal.ProcessCourtOrder)
		if err != nil {
			return LineupResult{}, err
		}
		if err := gate.Arm(net, meter); err != nil {
			return LineupResult{}, err
		}
		meters[i] = meter
		if lc.NoiseRate > 0 {
			noise := &netsim.Flow{
				Net: net, Src: "entry", Dst: id,
				ID: netsim.FlowID(fmt.Sprintf("cross-%d", i)),
				Pattern: &netsim.Poisson{
					MeanGap: time.Duration(float64(lc.BaseGap) / lc.NoiseRate),
					Size:    400,
				},
				Until: streamEnd,
			}
			if err := noise.Start(); err != nil {
				return LineupResult{}, err
			}
		}
	}

	if err := serveWatermark(sim, server, params, streamEnd); err != nil {
		return LineupResult{}, err
	}

	if lc.Guilty >= 0 {
		circ, err := an.BuildCircuit(clients[lc.Guilty], "entry", "middle", "exit")
		if err != nil {
			return LineupResult{}, err
		}
		if err := clients[lc.Guilty].Send(circ, "seized-server", []byte("GET /contraband")); err != nil {
			return LineupResult{}, err
		}
	}
	sim.RunUntil(streamEnd + time.Second)
	if sim.Exhausted() {
		return LineupResult{}, fmt.Errorf("streaming: %w after %d steps", netsim.ErrStepBudget, sim.Steps())
	}

	detector, err := NewDetector(params)
	if err != nil {
		return LineupResult{}, err
	}
	bin := lc.ChipDuration / 4
	horizon := streamEnd + time.Second
	maxOffset := int(delaySearch / bin)

	res := LineupResult{Identified: -1, Scores: make([]float64, lc.Suspects)}
	best := 0.0
	for i, meter := range meters {
		wm, err := detector.Score(meter.Counts(bin, horizon), bin, maxOffset)
		if err != nil {
			return LineupResult{}, err
		}
		res.Scores[i] = wm.Z
		if wm.Z >= DefaultZThreshold && wm.Z > best {
			best = wm.Z
			res.Identified = i
		}
	}
	res.Correct = res.Identified == lc.Guilty
	return res, nil
}
