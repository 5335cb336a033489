package watermark

import (
	"errors"
	"fmt"
	"time"

	"lawgate/internal/anonet"
	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/legal"
	"lawgate/internal/netsim"
)

// ErrBadExperiment is returned for invalid experiment parameters.
var ErrBadExperiment = errors.New("watermark: invalid experiment config")

// defaultStepBudget bounds one trial's event count when the config does
// not set MaxSteps. The heaviest sweep point (degree-9 code, 4 bits,
// 4x cross traffic, 8-candidate lineup) executes well under a million
// events; anything approaching this cap is a scheduling loop.
const defaultStepBudget = 20_000_000

// ExperimentConfig parameterizes the Section IV-B reproduction: a suspect
// downloading from a seized server through a three-hop anonymity circuit,
// with the server's response rate watermarked and only packet counts
// collected at the suspect's ISP.
type ExperimentConfig struct {
	// Seed drives all randomness.
	Seed int64
	// CodeDegree selects the m-sequence (length 2^degree - 1) — the
	// "long PN code" knob.
	CodeDegree int
	// Bits is the watermark payload length.
	Bits int
	// ChipDuration, Amplitude, BaseGap shape the modulation.
	ChipDuration time.Duration
	Amplitude    float64
	BaseGap      time.Duration
	// NoiseRate is the cross-traffic intensity at the suspect, relative
	// to the watermarked flow's base rate (1.0 = equal rates).
	NoiseRate float64
	// Jitter is per-link delay jitter in the circuit.
	Jitter time.Duration
	// Loss is per-link packet-loss probability — failure injection for
	// the detector's robustness.
	Loss float64
	// BandwidthBps, when positive, constrains every circuit link:
	// serialization queueing distorts inter-packet gaps, and saturation
	// clips the watermark's high-rate chips.
	BandwidthBps int64
	// Guilty: the tapped suspect actually downloads from the seized
	// server. When false the download goes to a decoy client and the
	// suspect carries only cross traffic — the false-positive trial.
	Guilty bool
	// HeldProcess is what the investigator presents for the ISP-side
	// rate meter; the paper's point is that a court order suffices.
	HeldProcess legal.Process
	// MaxSteps caps the simulator's event count — the runaway-loop
	// guard for trials running inside sweep workers. Zero selects a
	// generous default.
	MaxSteps int64
	// Faults declares substrate misbehavior beyond the per-link Jitter/
	// Loss/BandwidthBps knobs above: seeded loss, duplication, reorder
	// delay, bandwidth caps, and relay churn, all deterministic in
	// (plan, seed). The zero plan injects nothing.
	Faults faults.Plan
}

// DefaultExperimentConfig returns a moderate working point: degree-7 code
// (127 chips), 4 bits, 20 ms chips, 30 % amplitude on a 2 ms base gap.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Seed:         1,
		CodeDegree:   7,
		Bits:         4,
		ChipDuration: 20 * time.Millisecond,
		Amplitude:    0.30,
		BaseGap:      2 * time.Millisecond,
		NoiseRate:    0.5,
		Jitter:       2 * time.Millisecond,
		Guilty:       true,
		HeldProcess:  legal.ProcessCourtOrder,
	}
}

// ExperimentResult is one trial's outcome.
type ExperimentResult struct {
	// Watermark is the DSSS detector's result at the suspect tap.
	Watermark Result
	// Detected applies the default Z threshold.
	Detected bool
	// BaselineCorr and BaselineDetected score the naive tx/rx
	// correlation comparator.
	BaselineCorr     float64
	BaselineDetected bool
	// SuspectPackets and ServerPackets count what each tap saw.
	SuspectPackets, ServerPackets int
	// RequiredProcess echoes the legal engine's ruling for the ISP-side
	// collection — the experiment's legal half.
	RequiredProcess legal.Process
	// Faults is what the injector actually did to the run.
	Faults faults.Stats
}

// BaselineThreshold is the comparator's detection threshold on tx/rx
// count correlation.
const BaselineThreshold = 0.5

// wmFaultStream separates the fault injector's seed lineage from the
// simulation's own.
const wmFaultStream int64 = 0x776d6661756c7401 // "wmfault"+1

// RunExperiment executes one trial.
func RunExperiment(ec ExperimentConfig) (ExperimentResult, error) {
	if ec.Bits <= 0 || ec.BaseGap <= 0 || ec.ChipDuration <= 0 {
		return ExperimentResult{}, fmt.Errorf("%w: %+v", ErrBadExperiment, ec)
	}
	params, err := trialParams(ec.CodeDegree, ec.Bits, ec.ChipDuration, ec.Amplitude, ec.BaseGap, ErrBadExperiment)
	if err != nil {
		return ExperimentResult{}, err
	}

	sim := netsim.NewSimulator(ec.Seed)
	budget := ec.MaxSteps
	if budget == 0 {
		budget = defaultStepBudget
	}
	sim.SetStepBudget(budget)
	net := netsim.NewNetwork(sim)

	an := anonet.New(net)

	suspect, err := an.AddClient("suspect")
	if err != nil {
		return ExperimentResult{}, err
	}
	decoy, err := an.AddClient("decoy")
	if err != nil {
		return ExperimentResult{}, err
	}
	for _, id := range []netsim.NodeID{"entry", "middle", "exit"} {
		if _, err := an.AddRelay(id); err != nil {
			return ExperimentResult{}, err
		}
	}
	server, err := an.AddServer("seized-server")
	if err != nil {
		return ExperimentResult{}, err
	}
	link := netsim.Link{
		Latency:      5 * time.Millisecond,
		Jitter:       ec.Jitter,
		Loss:         ec.Loss,
		BandwidthBps: ec.BandwidthBps,
	}
	for _, pair := range [][2]netsim.NodeID{
		{"suspect", "entry"}, {"decoy", "entry"},
		{"entry", "middle"}, {"middle", "exit"}, {"exit", "seized-server"},
	} {
		if err := net.Connect(pair[0], pair[1], link); err != nil {
			return ExperimentResult{}, err
		}
	}

	var hook *faults.Partitioned
	if ec.Faults.Active() {
		// Faults cover the topology just built and draw from their own
		// seed stream, so the fault schedule does not perturb the
		// overlay's randomness.
		hook, err = faults.NewPartitioned(ec.Faults, experiment.DeriveSeed(ec.Seed, wmFaultStream), net.Nodes())
		if err != nil {
			return ExperimentResult{}, err
		}
		if err := net.SetFaults(hook); err != nil {
			return ExperimentResult{}, err
		}
	}

	downloader := suspect
	if !ec.Guilty {
		downloader = decoy
	}
	circ, err := an.BuildCircuit(downloader, "entry", "middle", "exit")
	if err != nil {
		return ExperimentResult{}, err
	}

	// Strict gate: the experiment only runs if the collection is lawful.
	suspectMeter, serverMeter, err := armRateMeters(net, "suspect", "seized-server", ec.HeldProcess)
	if err != nil {
		return ExperimentResult{}, err
	}
	streamEnd := params.Duration() + 500*time.Millisecond
	if err := serveWatermark(sim, server, params, streamEnd); err != nil {
		return ExperimentResult{}, err
	}

	// Cross traffic at the suspect: other encrypted flows arriving from
	// the same entry relay, indistinguishable by headers.
	if ec.NoiseRate > 0 {
		noise := &netsim.Flow{
			Net: net, Src: "entry", Dst: "suspect", ID: "cross-traffic",
			Pattern: &netsim.Poisson{
				MeanGap: time.Duration(float64(ec.BaseGap) / ec.NoiseRate),
				Size:    400,
			},
			Until: streamEnd,
		}
		if err := noise.Start(); err != nil {
			return ExperimentResult{}, err
		}
	}

	if err := downloader.Send(circ, "seized-server", []byte("GET /contraband")); err != nil {
		return ExperimentResult{}, err
	}
	sim.RunUntil(streamEnd + time.Second)
	if sim.Exhausted() {
		// Report how much evidence the meters had acquired when the run
		// was cut off — a partial capture is still evidence of effort.
		sa, ta := suspectMeter.Acquired(), serverMeter.Acquired()
		return ExperimentResult{}, fmt.Errorf(
			"streaming: %w after %d steps (partial acquisition: suspect %v, server %v)",
			netsim.ErrStepBudget, sim.Steps(), sa, ta)
	}

	return scoreMeters(params, streamEnd, suspectMeter, serverMeter, hook)
}
