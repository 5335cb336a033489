// Watermark detection under network load, on the sharded simulator.
// The E3 reproduction in experiment.go runs the five-node circuit in
// isolation; this file re-stages it inside the campus+ISP+Tor composite
// topology and grows the background population sharing the suspect's
// ISP trunk. Serialization queueing on the capped trunk distorts the
// inter-packet gaps the DSSS watermark lives in, so the sweep traces
// how far the "long PN code" evidence technique survives a realistic,
// increasingly busy path.
package watermark

import (
	"fmt"
	"time"

	"lawgate/internal/capture"
	"lawgate/internal/experiment"
	"lawgate/internal/faults"
	"lawgate/internal/legal"
	"lawgate/internal/netsim"
	"lawgate/internal/netsim/topo"
)

// wmFlow is the watermarked download's flow label; relay handlers
// forward it hop by hop along the static circuit.
const wmFlow netsim.FlowID = "wm-download"

// ScaleConfig carries the topology and engine knobs of the load-scale
// experiment; the watermark parameters come from an ExperimentConfig
// and the background host count is the sweep's independent variable.
type ScaleConfig struct {
	// HostsPerCampus sizes each campus (≥ 2: the suspect and the decoy
	// share campus 0). The campus count follows from the host total.
	HostsPerCampus int
	// ISPEdges and TorRelays shape the backbone and the circuit.
	ISPEdges  int
	TorRelays int
	// TrunkBandwidthBps caps the edge↔core trunks — the shared
	// bottleneck background load pushes the watermark through
	// (0 = uncongested control).
	TrunkBandwidthBps int64
	// BackgroundGap is each background host's mean downstream
	// inter-packet gap (Poisson); BackgroundSize the packet size.
	// Total trunk load grows linearly with the host count.
	BackgroundGap  time.Duration
	BackgroundSize int
	// Partitions and Workers select the sharded engine's layout; the
	// experiment's output is invariant to both.
	Partitions int
	Workers    int
}

// DefaultScaleConfig returns a working point where detection is clean
// at tens of hosts and the trunk saturates at a few hundred.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		HostsPerCampus:    8,
		ISPEdges:          2,
		TorRelays:         3,
		TrunkBandwidthBps: 20_000_000,
		BackgroundGap:     4 * time.Millisecond,
		BackgroundSize:    400,
		Partitions:        1,
	}
}

// RunScaleExperiment runs one load-scale trial: the seized server
// streams the watermarked download through the Tor ring, the ISP core,
// and campus 0's trunk to the suspect (or, when ec.Guilty is false, the
// decoy), while `hosts` campus hosts pull background traffic across the
// same trunks. Metering and analysis are exactly the E3 experiment's;
// the result depends only on (ec, sc, hosts), never on Partitions or
// Workers.
func RunScaleExperiment(ec ExperimentConfig, sc ScaleConfig, hosts int) (ExperimentResult, error) {
	if ec.Bits <= 0 || ec.BaseGap <= 0 || ec.ChipDuration <= 0 {
		return ExperimentResult{}, fmt.Errorf("%w: %+v", ErrBadExperiment, ec)
	}
	if sc.HostsPerCampus < 2 || hosts < sc.HostsPerCampus {
		return ExperimentResult{}, fmt.Errorf(
			"%w: hosts=%d with %d per campus (campus 0 needs the suspect and the decoy)",
			ErrBadExperiment, hosts, sc.HostsPerCampus)
	}
	code, err := MSequence(ec.CodeDegree)
	if err != nil {
		return ExperimentResult{}, err
	}
	bits := make([]int8, ec.Bits)
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
		ChipDuration: ec.ChipDuration,
		Amplitude:    ec.Amplitude,
		BaseGap:      ec.BaseGap,
		PacketSize:   400,
	}
	if err := params.Validate(); err != nil {
		return ExperimentResult{}, err
	}

	parts := sc.Partitions
	if parts <= 0 {
		parts = 1
	}
	campuses := (hosts + sc.HostsPerCampus - 1) / sc.HostsPerCampus
	g, err := topo.Composite(topo.CompositeConfig{
		Campuses:          campuses,
		HostsPerCampus:    sc.HostsPerCampus,
		ISPEdges:          sc.ISPEdges,
		TorRelays:         sc.TorRelays,
		TrunkBandwidthBps: sc.TrunkBandwidthBps,
	})
	if err != nil {
		return ExperimentResult{}, err
	}

	o := netsim.NewShardedNetwork(ec.Seed, parts)
	budget := ec.MaxSteps
	if budget == 0 {
		// The classic default plus linear headroom for the background
		// population (each host contributes a bounded packet rate over
		// a bounded stream window).
		budget = defaultStepBudget + int64(hosts)*50_000
	}
	o.SetStepBudget(budget)
	if err := o.SetPartitionFunc(g.PartitionFunc(parts)); err != nil {
		return ExperimentResult{}, err
	}

	// The static circuit: server → Tor ring → core → edge 0 → campus 0
	// gateway → downloader. Relays forward the flow by rewriting the
	// delivered packet's endpoints — per-flow next-hop state, no global
	// routing table.
	const (
		server  netsim.NodeID = "seized-server"
		suspect netsim.NodeID = "campus0/h0"
		decoy   netsim.NodeID = "campus0/h1"
	)
	downloader := suspect
	if !ec.Guilty {
		downloader = decoy
	}
	path := []netsim.NodeID{server}
	for r := 0; r < sc.TorRelays; r++ {
		path = append(path, netsim.NodeID(fmt.Sprintf("tor%d", r)))
	}
	path = append(path, "isp-core", "isp-edge0", "campus0-gw", downloader)
	next := make(map[netsim.NodeID]netsim.NodeID, len(path))
	for i := 0; i+1 < len(path); i++ {
		next[path[i]] = path[i+1]
	}
	relay := func(id netsim.NodeID) netsim.Handler {
		hop, ok := next[id]
		if !ok {
			return nil
		}
		return netsim.HandlerFunc(func(n *netsim.Network, pkt *netsim.Packet) {
			if pkt.Header.Flow != wmFlow {
				return
			}
			pkt.Header.Src = id
			pkt.Header.Dst = hop
			_ = n.Send(pkt)
		})
	}
	if err := g.ApplyTo(o, relay); err != nil {
		return ExperimentResult{}, err
	}
	if err := o.AddNode(server, nil); err != nil {
		return ExperimentResult{}, err
	}
	wan := netsim.Link{Latency: 10 * time.Millisecond, Jitter: ec.Jitter, Loss: ec.Loss}
	if err := o.Connect(server, path[1], wan); err != nil {
		return ExperimentResult{}, err
	}

	var fb *faults.Partitioned
	if ec.Faults.Active() {
		fb, err = faults.NewPartitioned(ec.Faults, experiment.DeriveSeed(ec.Seed, wmFaultStream), o.Nodes())
		if err != nil {
			return ExperimentResult{}, err
		}
		if err := o.SetFaults(fb); err != nil {
			return ExperimentResult{}, err
		}
	}

	// Meters and their legal footing, exactly as in the E3 circuit. A
	// tap armed through any partition view attaches to the whole run.
	srvNet, err := o.PartitionNet(server)
	if err != nil {
		return ExperimentResult{}, err
	}
	gate := capture.NewGate(true)
	suspectMeter, err := capture.New(capture.RateMeter, capture.Placement{
		Node:   suspect,
		Actor:  legal.ActorGovernment,
		Source: legal.SourceThirdPartyNetwork,
	}, ec.HeldProcess)
	if err != nil {
		return ExperimentResult{}, err
	}
	if err := gate.Arm(srvNet, suspectMeter); err != nil {
		return ExperimentResult{}, fmt.Errorf("arming suspect-side meter: %w", err)
	}
	serverMeter, err := capture.New(capture.RateMeter, capture.Placement{
		Node:    server,
		Actor:   legal.ActorGovernment,
		Source:  legal.SourceThirdPartyNetwork,
		Consent: &legal.Consent{Scope: legal.ConsentCommunicationParty},
	}, legal.ProcessNone)
	if err != nil {
		return ExperimentResult{}, err
	}
	if err := gate.Arm(srvNet, serverMeter); err != nil {
		return ExperimentResult{}, fmt.Errorf("arming server-side meter: %w", err)
	}

	// The watermarked stream: the server's emission gaps carry the DSSS
	// chips; gaps draw from the server's own node stream so the
	// schedule is partition-invariant.
	embedder, err := NewEmbedder(params)
	if err != nil {
		return ExperimentResult{}, err
	}
	rng, err := o.NodeRand(server)
	if err != nil {
		return ExperimentResult{}, err
	}
	srvSim := srvNet.Sim()
	tail := 500 * time.Millisecond
	streamEnd := params.Duration() + tail
	firstHop := path[1]
	var emit func()
	emit = func() {
		if srvSim.Now() > streamEnd {
			return
		}
		_ = srvNet.Send(&netsim.Packet{
			Header: netsim.Header{
				Src: server, Dst: firstHop,
				Flow: wmFlow, Proto: netsim.ProtoTCP,
			},
			Payload:   make([]byte, params.PacketSize),
			Encrypted: true,
		})
		_ = srvSim.Schedule(embedder.NextGap(rng), emit)
	}
	if err := o.ScheduleNode(server, embedder.NextGap(rng), emit); err != nil {
		return ExperimentResult{}, err
	}

	// Cross traffic at the suspect, as in the E3 circuit.
	if ec.NoiseRate > 0 {
		gwNet, err := o.PartitionNet("campus0-gw")
		if err != nil {
			return ExperimentResult{}, err
		}
		noise := &netsim.Flow{
			Net: gwNet, Src: "campus0-gw", Dst: suspect, ID: "cross-traffic",
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

	// Background load: every other campus host pulls a downstream
	// Poisson flow across its trunk, from the core. Campus 0's trunk is
	// the watermark's own bottleneck; the others keep the core honest.
	coreNet, err := o.PartitionNet("isp-core")
	if err != nil {
		return ExperimentResult{}, err
	}
	started := 0
	for c := 0; c < campuses && started < hosts; c++ {
		edge := netsim.NodeID(fmt.Sprintf("isp-edge%d", c%maxInt(sc.ISPEdges, 1)))
		for i := 0; i < sc.HostsPerCampus && started < hosts; i++ {
			started++
			if c == 0 && i < 2 {
				continue // the suspect and the decoy carry no background
			}
			bg := &netsim.Flow{
				Net: coreNet, Src: "isp-core", Dst: edge,
				ID: netsim.FlowID(fmt.Sprintf("bg-%d-%d", c, i)),
				Pattern: &netsim.Poisson{
					MeanGap: sc.BackgroundGap,
					Size:    sc.BackgroundSize,
				},
				Until: streamEnd,
			}
			if err := bg.Start(); err != nil {
				return ExperimentResult{}, err
			}
		}
	}

	if err := o.RunUntil(streamEnd+time.Second, sc.Workers); err != nil {
		return ExperimentResult{}, err
	}
	if o.Exhausted() {
		sa, ta := suspectMeter.Acquired(), serverMeter.Acquired()
		return ExperimentResult{}, fmt.Errorf(
			"streaming at %d hosts: %w after %d steps (partial acquisition: suspect %v, server %v)",
			hosts, netsim.ErrStepBudget, o.Steps(), sa, ta)
	}

	// Analysis: identical to the E3 experiment.
	bin := ec.ChipDuration / 4
	horizon := streamEnd + time.Second
	rx := suspectMeter.Counts(bin, horizon)
	tx := serverMeter.Counts(bin, horizon)
	detector, err := NewDetector(params)
	if err != nil {
		return ExperimentResult{}, err
	}
	maxOffset := int((100 * time.Millisecond) / bin)
	wm, err := detector.Score(rx, bin, maxOffset)
	if err != nil {
		return ExperimentResult{}, err
	}
	window := len(params.Bits)*len(params.Code)*int(ec.ChipDuration/bin) + maxOffset
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
	if fb != nil {
		res.Faults = fb.Stats()
	}
	return res, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ScaleSweep declares the load series: paired guilty/innocent detection
// rates as the background host population sharing the suspect's trunk
// grows. Runs on the sharded engine; the emitted series is identical at
// any partition or worker count.
func ScaleSweep(base ExperimentConfig, sc ScaleConfig, reps int, seed int64, hostCounts []int) experiment.Sweep {
	points := make([]experiment.Point, len(hostCounts))
	for i, h := range hostCounts {
		points[i] = experiment.Point{Label: fmt.Sprintf("hosts=%d", h), Value: float64(h)}
	}
	return experiment.Sweep{
		Name:        "watermark-load",
		Points:      points,
		Reps:        reps,
		Seed:        seed,
		Proportions: detectionProportions,
		Run: func(t experiment.Trial, pt experiment.Point) (experiment.Sample, error) {
			hosts := int(pt.Value)
			guilty := base
			guilty.Guilty = true
			guilty.Seed = t.SubSeed(0)
			resG, err := RunScaleExperiment(guilty, sc, hosts)
			if err != nil {
				return nil, fmt.Errorf("guilty variant: %w", err)
			}
			innocent := guilty
			innocent.Guilty = false
			innocent.Seed = t.SubSeed(1)
			resI, err := RunScaleExperiment(innocent, sc, hosts)
			if err != nil {
				return nil, fmt.Errorf("innocent variant: %w", err)
			}
			return experiment.Sample{
				MetricDSSSTP:     experiment.Bool(resG.Detected),
				MetricDSSSFP:     experiment.Bool(resI.Detected),
				MetricBaselineTP: experiment.Bool(resG.BaselineDetected),
				MetricBaselineFP: experiment.Bool(resI.BaselineDetected),
				MetricZ:          resG.Watermark.Z,
				MetricCoverage:   resG.Watermark.Coverage,
			}, nil
		},
	}
}
