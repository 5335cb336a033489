package netsim

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"
)

// ErrBadPattern is returned for traffic patterns with invalid parameters.
var ErrBadPattern = errors.New("netsim: invalid traffic pattern")

// TrafficPattern produces inter-packet gaps and packet sizes. Patterns may
// carry internal state (ON/OFF phases) and are not safe for concurrent
// use.
type TrafficPattern interface {
	// NextGap returns the delay before the next packet.
	NextGap(r *rand.Rand) time.Duration
	// PacketSize returns the next packet's payload size in bytes.
	PacketSize(r *rand.Rand) int
}

// CBR is constant bit rate: fixed gap, fixed size.
type CBR struct {
	// Gap is the constant inter-packet interval.
	Gap time.Duration
	// Size is the constant payload size.
	Size int
}

// NextGap implements TrafficPattern.
func (c *CBR) NextGap(*rand.Rand) time.Duration { return c.Gap }

// PacketSize implements TrafficPattern.
func (c *CBR) PacketSize(*rand.Rand) int { return c.Size }

// Poisson models memoryless arrivals: exponentially distributed gaps.
type Poisson struct {
	// MeanGap is the mean inter-packet interval.
	MeanGap time.Duration
	// Size is the constant payload size.
	Size int
}

// NextGap implements TrafficPattern.
func (p *Poisson) NextGap(r *rand.Rand) time.Duration {
	return time.Duration(r.ExpFloat64() * float64(p.MeanGap))
}

// PacketSize implements TrafficPattern.
func (p *Poisson) PacketSize(*rand.Rand) int { return p.Size }

// ParetoOnOff models bursty web-like traffic: ON and OFF periods with
// Pareto-distributed lengths; during ON, packets at a constant gap.
type ParetoOnOff struct {
	// Gap is the inter-packet interval during ON periods.
	Gap time.Duration
	// Size is the payload size.
	Size int
	// MeanOn and MeanOff are the mean period lengths.
	MeanOn, MeanOff time.Duration
	// Shape is the Pareto shape parameter (must be > 1 for a finite
	// mean; 1.5 is the classical web-traffic value).
	Shape float64

	onRemaining time.Duration
}

// pareto draws a Pareto-distributed value with the given mean and shape.
func pareto(r *rand.Rand, mean time.Duration, shape float64) time.Duration {
	// For Pareto with scale xm and shape a: mean = xm * a / (a-1).
	xm := float64(mean) * (shape - 1) / shape
	u := r.Float64()
	if u == 0 {
		u = math.SmallestNonzeroFloat64
	}
	return time.Duration(xm / math.Pow(u, 1/shape))
}

// NextGap implements TrafficPattern: during an ON period it emits the
// constant gap; when the period is exhausted it inserts a Pareto OFF gap
// and begins a new Pareto ON period.
func (p *ParetoOnOff) NextGap(r *rand.Rand) time.Duration {
	if p.onRemaining >= p.Gap {
		p.onRemaining -= p.Gap
		return p.Gap
	}
	off := pareto(r, p.MeanOff, p.Shape)
	p.onRemaining = pareto(r, p.MeanOn, p.Shape)
	return p.Gap + off
}

// PacketSize implements TrafficPattern.
func (p *ParetoOnOff) PacketSize(*rand.Rand) int { return p.Size }

// Flow drives a TrafficPattern over a network from src to dst until the
// deadline, tagging packets with the flow ID. Payload, when non-nil,
// supplies each packet's content by sequence number.
type Flow struct {
	// Net is the carrying network.
	Net *Network
	// Src, Dst, ID describe the conversation.
	Src, Dst NodeID
	ID       FlowID
	// Pattern shapes the traffic.
	Pattern TrafficPattern
	// Until stops the flow at this virtual time.
	Until time.Duration
	// Payload, when non-nil, supplies content for packet i.
	Payload func(i int) []byte
	// Proto defaults to ProtoTCP.
	Proto Protocol

	sent int
	// emitFn caches the emit method value so each self-reschedule reuses
	// one func value instead of allocating a fresh closure per packet.
	emitFn func()
	// rng is the stream pattern draws come from: the source node's, so a
	// flow's gaps and sizes are independent of the partition layout.
	rng *rand.Rand
	// route is the (src, dst, link) triple resolved on the first emit;
	// later packets and reschedules reuse it. It holds the link index,
	// so re-Connecting the pair mid-run still takes effect.
	route  route
	routed bool
}

// Sent returns the number of packets the flow has transmitted.
func (f *Flow) Sent() int { return f.sent }

// Start schedules the flow's first packet. The flow then self-schedules
// until Until.
func (f *Flow) Start() error {
	if f.Net == nil || f.Pattern == nil {
		return ErrBadPattern
	}
	if f.Proto == 0 {
		f.Proto = ProtoTCP
	}
	src, ok := f.Net.topo.index[f.Src]
	if !ok {
		return fmt.Errorf("%w: src %q", ErrUnknownNode, f.Src)
	}
	f.emitFn = f.emit
	f.routed = false
	f.rng = f.Net.run.state[src].rng
	return f.Net.scheduleNode(src, f.Pattern.NextGap(f.rng), f.emitFn)
}

func (f *Flow) emit() {
	sim := f.Net.Sim()
	if sim.Now() > f.Until {
		return
	}
	var payload []byte
	if f.Payload != nil {
		payload = f.Payload(f.sent)
	}
	size := f.Pattern.PacketSize(f.rng)
	pkt := &Packet{
		Header: Header{
			Src: f.Src, Dst: f.Dst, Flow: f.ID,
			SrcPort: 40000, DstPort: 80,
			Proto:     f.Proto,
			SizeBytes: size + 40,
		},
		Payload: payload,
	}
	// Route and link errors terminate the flow; the simulation surface
	// for misconfigured flows is the Sent counter staying flat.
	if !f.routed {
		r, err := f.Net.resolve(f.Src, f.Dst)
		if err != nil {
			return
		}
		f.route, f.routed = r, true
	}
	if err := f.Net.send(pkt, f.route); err != nil {
		return
	}
	f.sent++
	gap := f.Pattern.NextGap(f.rng)
	if sim.Now()+gap <= f.Until {
		_ = f.Net.scheduleNode(f.route.src, gap, f.emitFn)
	}
}
