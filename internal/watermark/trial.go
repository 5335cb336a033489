package watermark

import (
	"fmt"
	"time"

	"lawgate/internal/anonet"
	"lawgate/internal/capture"
	"lawgate/internal/faults"
	"lawgate/internal/legal"
	"lawgate/internal/netsim"
)

// The trial stages every E3 run shares — the E3 circuit (RunExperiment),
// the lineup (RunLineup) and the load-scale composite
// (RunScaleExperiment). Only the topology builders differ.

// delaySearch is the path delay the analysis absorbs: the detector and
// the baseline search start offsets over this span, in quarter-chip
// bins.
const delaySearch = 100 * time.Millisecond

// maxDelayBins bounds that search. Its depth, delaySearch/(chip/4) bins,
// grows as 1/chip, and so does the count series over a trial's fixed
// 1.5 s of slack (15 times as many bins); the baseline allocates two
// series per offset searched.
const maxDelayBins = 1000

// minChip is the shortest chip whose delay search fits maxDelayBins:
// 400 µs, fifty times shorter than the 20 ms default.
const minChip = 4 * delaySearch / maxDelayBins

// trialParams builds the watermark a trial embeds: the degree's
// m-sequence spreading an alternating ±1 payload of nbits bits into
// 400-byte packets. A chip shorter than minChip is rejected with errBad
// before anything is simulated.
func trialParams(degree, nbits int, chip time.Duration, amplitude float64, baseGap time.Duration, errBad error) (Params, error) {
	code, err := MSequence(degree)
	if err != nil {
		return Params{}, err
	}
	bits := make([]int8, nbits)
	for i := range bits {
		if i%2 == 0 {
			bits[i] = 1
		} else {
			bits[i] = -1
		}
	}
	params := Params{
		Code:         code,
		Bits:         bits,
		ChipDuration: chip,
		Amplitude:    amplitude,
		BaseGap:      baseGap,
		PacketSize:   400,
	}
	if err := params.Validate(); err != nil {
		return Params{}, err
	}
	if chip < minChip {
		return Params{}, fmt.Errorf("%w: chip duration %v is under %v, the shortest whose %v delay search fits the %d-bin analysis budget",
			errBad, chip, minChip, delaySearch, maxDelayBins)
	}
	return params, nil
}

// armRateMeters arms, through a strict gate, the two rate meters a
// single-suspect trial reads: the ISP-side meter at the suspect, which
// is non-content and needs (and must hold) pen/trap-class process, then
// the meter at the seized server, which law enforcement operates as a
// party to the flows it emits and so needs no process.
func armRateMeters(net *netsim.Network, suspect, server netsim.NodeID, held legal.Process) (suspectMeter, serverMeter *capture.Device, err error) {
	gate := capture.NewGate(true)
	suspectMeter, err = capture.New(capture.RateMeter, capture.Placement{
		Node:   suspect,
		Actor:  legal.ActorGovernment,
		Source: legal.SourceThirdPartyNetwork,
	}, held)
	if err != nil {
		return nil, nil, err
	}
	if err := gate.Arm(net, suspectMeter); err != nil {
		return nil, nil, fmt.Errorf("arming suspect-side meter: %w", err)
	}
	serverMeter, err = capture.New(capture.RateMeter, capture.Placement{
		Node:    server,
		Actor:   legal.ActorGovernment,
		Source:  legal.SourceThirdPartyNetwork,
		Consent: &legal.Consent{Scope: legal.ConsentCommunicationParty},
	}, legal.ProcessNone)
	if err != nil {
		return nil, nil, err
	}
	if err := gate.Arm(net, serverMeter); err != nil {
		return nil, nil, fmt.Errorf("arming server-side meter: %w", err)
	}
	return suspectMeter, serverMeter, nil
}

// serveWatermark makes the anonet server answer a request with the
// watermarked download: it streams packets, whose gaps the embedder
// modulates, back along the request's circuit until streamEnd.
func serveWatermark(sim *netsim.Simulator, server *anonet.Server, params Params, streamEnd time.Duration) error {
	embedder, err := NewEmbedder(params)
	if err != nil {
		return err
	}
	server.OnRequest = func(from netsim.NodeID, flow netsim.FlowID, _ []byte) {
		payload := make([]byte, params.PacketSize)
		var emit func()
		emit = func() {
			if sim.Now() > streamEnd {
				return
			}
			if err := server.Reply(from, flow, payload); err != nil {
				return
			}
			_ = sim.Schedule(embedder.NextGap(sim.Rand()), emit)
		}
		_ = sim.Schedule(embedder.NextGap(sim.Rand()), emit)
	}
	return nil
}

// scoreMeters is a single-suspect trial's analysis: the DSSS detector on
// the suspect's counts and the baseline correlation of the server's
// against them, both binned at a quarter chip for the offset search up
// to streamEnd plus a second. hook, when set, reports what the fault
// injector did.
func scoreMeters(params Params, streamEnd time.Duration, suspectMeter, serverMeter *capture.Device, hook *faults.Partitioned) (ExperimentResult, error) {
	bin := params.ChipDuration / 4
	horizon := streamEnd + time.Second
	rx := suspectMeter.Counts(bin, horizon)
	tx := serverMeter.Counts(bin, horizon)

	detector, err := NewDetector(params)
	if err != nil {
		return ExperimentResult{}, err
	}
	maxOffset := int(delaySearch / bin)
	wm, err := detector.Score(rx, bin, maxOffset)
	if err != nil {
		return ExperimentResult{}, err
	}
	// The baseline sees the same observation window the DSSS detector
	// uses; without the trim, the silent tail after the stream ends
	// correlates trivially between the two taps.
	window := len(params.Bits)*len(params.Code)*int(params.ChipDuration/bin) + maxOffset
	if window > len(tx) {
		window = len(tx)
	}
	baseCorr, _ := BaselineCorrelation(tx[:window-maxOffset], rx[:window], maxOffset)

	res := ExperimentResult{
		Watermark:        wm,
		Detected:         wm.Detected(DefaultZThreshold),
		BaselineCorr:     baseCorr,
		BaselineDetected: baseCorr >= BaselineThreshold,
		SuspectPackets:   suspectMeter.Acquired().Records,
		ServerPackets:    serverMeter.Acquired().Records,
		RequiredProcess:  suspectMeter.Ruling().Required,
	}
	if hook != nil {
		res.Faults = hook.Stats()
	}
	return res, nil
}
