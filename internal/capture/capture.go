// Package capture provides the acquisition devices of paper § II-B as
// legally gated taps on the simulated network: pen registers (outgoing
// addressing), trap-and-trace devices (incoming addressing), header
// sniffers (both directions, headers only), rate meters (packet counts per
// interval — the Section IV-B collection primitive), and full-content
// wiretaps.
//
// Every device derives the legal.Action its operation constitutes, and a
// Gate evaluates it before arming. A strict gate refuses under-authorized
// devices; a permissive gate arms them anyway and records the violation so
// downstream suppression analysis can exclude the fruits — the paper's
// motivating failure mode.
package capture

import (
	"errors"
	"fmt"
	"time"

	"lawgate/internal/legal"
	"lawgate/internal/netsim"
)

// ErrUnauthorized is returned by a strict Gate when the held process does
// not satisfy what the device's operation requires.
var ErrUnauthorized = errors.New("capture: device not authorized for its required process")

// ErrAlreadyArmed is returned when a device is armed twice.
var ErrAlreadyArmed = errors.New("capture: device already armed")

// DeviceKind identifies what a device collects.
type DeviceKind int

// Device kinds.
const (
	// PenRegister records outgoing addressing information
	// (18 U.S.C. § 3127(3)).
	PenRegister DeviceKind = iota + 1
	// TrapTrace records incoming addressing information
	// (18 U.S.C. § 3127(4)).
	TrapTrace
	// HeaderSniffer records addressing headers in both directions (the
	// WarDriving configuration).
	HeaderSniffer
	// RateMeter records only packet counts and sizes per time interval —
	// the paper's Section IV-B collection: "they do not need to collect
	// the entire packet, so they do not need a wiretap warrant".
	RateMeter
	// FullWiretap records entire packets, payload included (Title III).
	FullWiretap
)

var deviceKindNames = map[DeviceKind]string{
	PenRegister:   "pen register",
	TrapTrace:     "trap and trace",
	HeaderSniffer: "header sniffer",
	RateMeter:     "rate meter",
	FullWiretap:   "full wiretap",
}

// String returns the human-readable kind.
func (k DeviceKind) String() string {
	if s, ok := deviceKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("DeviceKind(%d)", int(k))
}

// Valid reports whether k is a defined device kind.
func (k DeviceKind) Valid() bool {
	_, ok := deviceKindNames[k]
	return ok
}

// DataClass returns the legal data class the device acquires: content for
// a full wiretap, addressing for everything else.
func (k DeviceKind) DataClass() legal.DataClass {
	if k == FullWiretap {
		return legal.DataContent
	}
	return legal.DataAddressing
}

// Record is one captured observation. Addressing-class devices leave
// Payload nil.
type Record struct {
	// At is the virtual capture time.
	At time.Duration
	// Dir is the packet direction at the tapped node.
	Dir netsim.Direction
	// Header is the addressing information.
	Header netsim.Header
	// Payload is the content; nil unless captured by a full wiretap.
	Payload []byte
	// Encrypted echoes the packet's encryption flag.
	Encrypted bool
}

// Placement describes where and on whose behalf a device operates; it
// determines the legality of the capture.
type Placement struct {
	// Node is the tapped network node.
	Node netsim.NodeID
	// Actor is who operates the device.
	Actor legal.Actor
	// Source classifies the tapped infrastructure.
	Source legal.Source
	// Consent, if any, accompanies the operation.
	Consent *legal.Consent
	// Exigency, if any, accompanies the operation.
	Exigency *legal.Exigency
	// InterceptsThirdParty marks relay-operator style interception.
	InterceptsThirdParty bool
}

// Device is a capture instrument: a netsim.Tap whose observations are
// filtered to what its kind lawfully describes.
type Device struct {
	kind      DeviceKind
	placement Placement
	held      legal.Process
	expiry    time.Duration
	ruling    legal.Ruling
	armed     bool
	// log holds the records in order, in chunks of logChunk; only the
	// last chunk may be partly full. Growing the log adds a chunk and
	// never copies a record.
	log [][]Record
	n   int // records in log
	// Expired counts observations dropped after the authorization
	// lapsed.
	Expired int
}

var _ netsim.Tap = (*Device)(nil)

// logChunk is how many records one chunk of a device's log holds
// (256 × 128 bytes = 32 KB). A log that regrew by doubling would copy
// every record, payload pointer and all, at each regrowth.
const logChunk = 256

// New constructs an unarmed device. held is the legal process the operator
// possesses.
func New(kind DeviceKind, placement Placement, held legal.Process) (*Device, error) {
	if !kind.Valid() {
		return nil, fmt.Errorf("capture: invalid device kind %d", int(kind))
	}
	if !held.Valid() {
		return nil, fmt.Errorf("capture: invalid held process %d", int(held))
	}
	return &Device{kind: kind, placement: placement, held: held}, nil
}

// Kind returns the device kind.
func (d *Device) Kind() DeviceKind { return d.kind }

// SetExpiry bounds the device's authorization in virtual time: a search
// warrant or surveillance order "may expire and revoke after a specific
// time period" (paper § III-A-2-b). Observations at or after the expiry
// are dropped and counted in Expired. Zero means unbounded.
func (d *Device) SetExpiry(at time.Duration) { d.expiry = at }

// Held returns the process the operator holds.
func (d *Device) Held() legal.Process { return d.held }

// Action derives the legal.Action the device's operation constitutes.
func (d *Device) Action() legal.Action {
	return legal.Action{
		Name:                 fmt.Sprintf("%s@%s", d.kind, d.placement.Node),
		Actor:                d.placement.Actor,
		Timing:               legal.TimingRealTime,
		Data:                 d.kind.DataClass(),
		Source:               d.placement.Source,
		Consent:              d.placement.Consent,
		Exigency:             d.placement.Exigency,
		InterceptsThirdParty: d.placement.InterceptsThirdParty,
	}
}

// Ruling returns the engine's determination, valid after Arm.
func (d *Device) Ruling() legal.Ruling { return d.ruling }

// Escalate re-kinds the device mid-capture — the paper's scope-creep
// event, e.g. a header sniffer upgraded to full-content interception —
// and returns the ActionDelta the change carries, for a Monitor (or any
// EvaluateDelta consumer) to re-rule.
func (d *Device) Escalate(to DeviceKind) (legal.ActionDelta, error) {
	if !to.Valid() {
		return legal.ActionDelta{}, fmt.Errorf("capture: invalid device kind %d", int(to))
	}
	old := d.Action()
	d.kind = to
	next := d.Action()
	return legal.Diff(&old, &next), nil
}

// RevokeConsent marks the placement's consent revoked and returns the
// delta. The stored consent is replaced with a modified copy, never
// mutated in place: deltas adopt pointers, so the old consent must stay
// as it was recorded.
func (d *Device) RevokeConsent() (legal.ActionDelta, error) {
	if d.placement.Consent == nil {
		return legal.ActionDelta{}, errors.New("capture: no consent to revoke")
	}
	old := d.Action()
	c := *d.placement.Consent
	c.Revoked = true
	d.placement.Consent = &c
	next := d.Action()
	return legal.Diff(&old, &next), nil
}

// LapseExigency clears the placement's exigency — the emergency
// authorization expiring mid-capture — and returns the delta.
func (d *Device) LapseExigency() (legal.ActionDelta, error) {
	if d.placement.Exigency == nil {
		return legal.ActionDelta{}, errors.New("capture: no exigency to lapse")
	}
	old := d.Action()
	d.placement.Exigency = nil
	next := d.Action()
	return legal.Diff(&old, &next), nil
}

// Lawful reports whether the held process satisfies the ruling; valid
// after Arm.
func (d *Device) Lawful() bool { return d.held.Satisfies(d.ruling.Required) }

// Observe implements netsim.Tap: the device logs what its kind permits.
// Pen registers log outbound addressing; trap-and-trace devices log
// inbound addressing; header sniffers and rate meters log both; full
// wiretaps log everything including payload.
func (d *Device) Observe(dir netsim.Direction, at time.Duration, pkt *netsim.Packet) {
	if d.expiry > 0 && at >= d.expiry {
		d.Expired++
		return
	}
	switch d.kind {
	case PenRegister:
		if dir != netsim.DirOutbound {
			return
		}
	case TrapTrace:
		if dir != netsim.DirInbound {
			return
		}
	}
	rec := Record{At: at, Dir: dir, Header: pkt.Header, Encrypted: pkt.Encrypted}
	if d.kind == FullWiretap {
		rec.Payload = append([]byte(nil), pkt.Payload...)
	}
	if d.n%logChunk == 0 {
		d.log = append(d.log, make([]Record, 0, logChunk))
	}
	last := &d.log[len(d.log)-1]
	*last = append(*last, rec)
	d.n++
}

// Acquisition summarizes how much evidence a device has obtained — the
// figure a partial or interrupted capture must report instead of
// silently discarding what it holds.
type Acquisition struct {
	// Records is the number of captured observations.
	Records int
	// Bytes totals the observed packets' sizes (headers included).
	Bytes int64
	// Expired counts observations dropped after authorization lapsed.
	Expired int
}

// String renders the summary for error messages and reports.
func (a Acquisition) String() string {
	s := fmt.Sprintf("%d records (%d bytes)", a.Records, a.Bytes)
	if a.Expired > 0 {
		s += fmt.Sprintf(", %d dropped after expiry", a.Expired)
	}
	return s
}

// Acquired summarizes the evidence obtained so far.
func (d *Device) Acquired() Acquisition {
	a := Acquisition{Records: d.n, Expired: d.Expired}
	for _, chunk := range d.log {
		for i := range chunk {
			a.Bytes += int64(chunk[i].Header.SizeBytes)
		}
	}
	return a
}

// Records returns a copy of the captured observations; payloads are
// deep-copied so callers cannot mutate the device's log.
func (d *Device) Records() []Record {
	out := make([]Record, 0, d.n)
	for _, chunk := range d.log {
		out = append(out, chunk...)
	}
	for i := range out {
		if out[i].Payload != nil {
			out[i].Payload = append([]byte(nil), out[i].Payload...)
		}
	}
	return out
}

// Counts bins the device's records into packet counts per interval,
// covering [0, horizon) — the rate signal the Section IV-B detector
// correlates. Records at or past the horizon are ignored.
func (d *Device) Counts(bin time.Duration, horizon time.Duration) []int {
	if bin <= 0 || horizon <= 0 {
		return nil
	}
	n := int(horizon / bin)
	counts := make([]int, n)
	for _, chunk := range d.log {
		for j := range chunk {
			i := int(chunk[j].At / bin)
			if i >= 0 && i < n {
				counts[i]++
			}
		}
	}
	return counts
}

// Gate authorizes devices against the legal engine before they attach to
// the network.
type Gate struct {
	engine *legal.Engine
	strict bool
}

// NewGate returns a gate. A strict gate refuses unauthorized devices; a
// permissive gate arms them and lets suppression analysis catch the
// violation later.
func NewGate(strict bool) *Gate {
	return &Gate{engine: legal.NewEngine(), strict: strict}
}

// Arm evaluates the device's action, enforces strictness, and attaches the
// device as a tap at its placement node. Any partition view of a run
// attaches to the whole run.
func (g *Gate) Arm(net *netsim.Network, d *Device) error {
	if d.armed {
		return ErrAlreadyArmed
	}
	ruling, err := g.engine.Evaluate(d.Action())
	if err != nil {
		return fmt.Errorf("capture: evaluating device action: %w", err)
	}
	d.ruling = ruling
	if g.strict && !d.held.Satisfies(ruling.Required) {
		return fmt.Errorf("%w: %s requires %s, operator holds %s",
			ErrUnauthorized, d.kind, ruling.Required, d.held)
	}
	if err := net.AttachTap(d.placement.Node, d); err != nil {
		return err
	}
	d.armed = true
	return nil
}
