package capture

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// CaptureEvent classifies a monitor-produced ledger record; it rides in
// ledger.Record.Code on KindCapture records.
type CaptureEvent uint32

// Capture ledger events.
const (
	// CaptureBase seals the monitor's base ruling at start.
	CaptureBase CaptureEvent = iota + 1
	// CaptureEscalation is a scope change (re-kinded device, data-class
	// creep, any non-consent, non-exigency mutation).
	CaptureEscalation
	// CaptureRevocation is a consent revoked mid-capture.
	CaptureRevocation
	// CaptureLapse is an exigency expiring mid-capture.
	CaptureLapse
)

var captureEventNames = map[CaptureEvent]string{
	CaptureBase:       "base",
	CaptureEscalation: "escalation",
	CaptureRevocation: "revocation",
	CaptureLapse:      "lapse",
}

// String returns the human-readable event name.
func (e CaptureEvent) String() string {
	if s, ok := captureEventNames[e]; ok {
		return s
	}
	return fmt.Sprintf("CaptureEvent(%d)", uint32(e))
}

// classifyDelta maps a mutation event to its capture ledger event.
// Revocation and lapse are recognized by their signature field changes;
// everything else that mutates the action is an escalation.
func classifyDelta(d *legal.ActionDelta) CaptureEvent {
	for i := range d.Fields {
		fd := &d.Fields[i]
		switch fd.Field {
		case legal.FieldConsent:
			if fd.NewConsent != nil && fd.NewConsent.Revoked &&
				(fd.OldConsent == nil || !fd.OldConsent.Revoked) {
				return CaptureRevocation
			}
		case legal.FieldExigency:
			if fd.OldExigency != nil && fd.NewExigency == nil {
				return CaptureLapse
			}
		}
	}
	return CaptureEscalation
}

// Monitor follows the legal status of one evolving acquisition: a base
// action ruled once, then a stream of ActionDeltas — scope escalations,
// consent revocations, lapsing exigencies — each re-ruled through
// Engine.EvaluateDelta. It reports only the events that changed the
// answer (required process or governing regime): most events leave the
// ruling untouched, and on a cached engine an event that returns the
// acquisition to a shape already ruled is a warm cache hit.
//
// A Monitor is safe for concurrent use: one mutex serializes Apply
// against the read accessors (Ruling, Events, Transitions, Transcript),
// so an auditor can stream the transcript while the capture loop is
// still emitting deltas. Events remain totally ordered by whichever
// goroutine wins the lock; drive Apply from one goroutine when event
// order must follow device order.
type Monitor struct {
	mu     sync.Mutex
	engine *legal.Engine
	ruling legal.Ruling
	events int
	trans  []Transition
	// log is the append-only audit transcript. Lines are built in place
	// with AppendEncoding/AppendFingerprint, so steady-state events cost
	// no per-event string allocations.
	log []byte
	// led, when set, receives one sealed KindCapture record per event:
	// the base ruling, then each escalation / revocation / lapse.
	led      *ledger.Ledger
	operator string
	device   string
}

// MonitorOption configures NewMonitor.
type MonitorOption func(*Monitor)

// WithAuditLedger seals every monitor event into led as a KindCapture
// record: operator becomes the record's Actor, device its Subject, and
// the transcript line its Note. With a ledger attached each event pays
// one note-string allocation — the price of a sealed record.
func WithAuditLedger(led *ledger.Ledger, operator, device string) MonitorOption {
	return func(m *Monitor) {
		m.led = led
		m.operator = operator
		m.device = device
	}
}

// Transition records one event that changed the ruling.
type Transition struct {
	// At is the virtual time of the event.
	At time.Duration
	// Event is the 1-based event ordinal.
	Event int
	// Delta is the canonical encoding of the mutation.
	Delta string
	// From/To are the required processes before and after.
	From, To legal.Process
	// FromRegime/ToRegime are the governing regimes before and after.
	FromRegime, ToRegime legal.Regime
}

// NewMonitor rules the base action and starts the event stream.
func NewMonitor(engine *legal.Engine, base legal.Action, opts ...MonitorOption) (*Monitor, error) {
	r, err := engine.Evaluate(base)
	if err != nil {
		return nil, fmt.Errorf("capture: monitor base action: %w", err)
	}
	m := &Monitor{engine: engine, ruling: r}
	for _, opt := range opts {
		opt(m)
	}
	m.log = append(m.log, "base "...)
	m.log = r.Action.AppendFingerprint(m.log)
	m.log = m.appendStatus(m.log, &r)
	m.seal(0, CaptureBase, 0)
	return m, nil
}

// draft builds the sealed-record form of the transcript line starting
// at lineStart. The note is copied out of m.log immediately, so later
// transcript growth cannot alias it.
func (m *Monitor) draft(lineStart int, ev CaptureEvent, at time.Duration) ledger.Draft {
	return ledger.Draft{
		At:      int64(at),
		Kind:    ledger.KindCapture,
		Code:    uint32(ev),
		Actor:   m.operator,
		Subject: m.device,
		Note:    string(m.log[lineStart : len(m.log)-1]), // strip trailing newline
	}
}

// seal appends the transcript line starting at lineStart to the audit
// ledger, if one is attached.
func (m *Monitor) seal(lineStart int, ev CaptureEvent, at time.Duration) {
	if m.led == nil {
		return
	}
	m.led.Append(m.draft(lineStart, ev, at))
}

// applyLocked re-rules the acquisition after one mutation event,
// appends its transcript line, and advances the monitor state. It
// returns the line bounds and event class so the caller chooses how to
// seal — one record (Apply) or one batch (ApplyAll). Callers hold m.mu.
func (m *Monitor) applyLocked(at time.Duration, d legal.ActionDelta) (lineStart int, ev CaptureEvent, changed bool, err error) {
	next, err := m.engine.EvaluateDelta(&m.ruling, d)
	if err != nil {
		return 0, 0, false, fmt.Errorf("capture: monitor event %d: %w", m.events+1, err)
	}
	m.events++
	changed = next.Required != m.ruling.Required || next.Regime != m.ruling.Regime
	lineStart = len(m.log)
	m.log = append(m.log, "t="...)
	m.log = strconv.AppendInt(m.log, int64(at), 10)
	m.log = append(m.log, ' ')
	m.log = d.AppendEncoding(m.log)
	m.log = append(m.log, ' ')
	m.log = next.Action.AppendFingerprint(m.log)
	m.log = m.appendStatus(m.log, &next)
	if changed {
		m.trans = append(m.trans, Transition{
			At:         at,
			Event:      m.events,
			Delta:      d.Encoding(),
			From:       m.ruling.Required,
			To:         next.Required,
			FromRegime: m.ruling.Regime,
			ToRegime:   next.Regime,
		})
	}
	m.ruling = next
	return lineStart, classifyDelta(&d), changed, nil
}

// Apply re-rules the acquisition after one mutation event, returning
// the ruling now in force and whether the event changed the required
// process or governing regime. Errors (a delta that makes the action
// invalid) leave the monitor's state untouched.
func (m *Monitor) Apply(at time.Duration, d legal.ActionDelta) (legal.Ruling, bool, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	lineStart, ev, changed, err := m.applyLocked(at, d)
	if err != nil {
		return legal.Ruling{}, false, err
	}
	m.seal(lineStart, ev, at)
	return m.ruling, changed, nil
}

// TimedDelta is one scheduled mutation in a buffered event burst.
type TimedDelta struct {
	At    time.Duration
	Delta legal.ActionDelta
}

// ApplyAll applies a buffered burst of events in order under a single
// lock hold and seals their audit records as one ledger batch, paying
// the ledger's Merkle maintenance once per burst instead of once per
// event. It stops at the first invalid delta and returns how many
// events were applied with that error; the applied prefix is still
// sealed, so the audit record matches the state the monitor reached.
func (m *Monitor) ApplyAll(events []TimedDelta) (applied int, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	var drafts []ledger.Draft
	if m.led != nil {
		drafts = make([]ledger.Draft, 0, len(events))
	}
	for i := range events {
		lineStart, ev, _, aerr := m.applyLocked(events[i].At, events[i].Delta)
		if aerr != nil {
			err = aerr
			break
		}
		if m.led != nil {
			drafts = append(drafts, m.draft(lineStart, ev, events[i].At))
		}
		applied++
	}
	if len(drafts) > 0 {
		m.led.AppendBatch(drafts)
	}
	return applied, err
}

// appendStatus appends " -> <process> (<regime>)\n" to the transcript.
func (m *Monitor) appendStatus(buf []byte, r *legal.Ruling) []byte {
	buf = append(buf, " -> "...)
	buf = append(buf, r.Required.String()...)
	buf = append(buf, " ("...)
	buf = append(buf, r.Regime.String()...)
	return append(buf, ')', '\n')
}

// Ruling returns the determination currently in force.
func (m *Monitor) Ruling() legal.Ruling {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.ruling
}

// Events reports how many mutation events the monitor has applied.
func (m *Monitor) Events() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.events
}

// Transitions returns a copy of the ruling-changing events, in order.
func (m *Monitor) Transitions() []Transition {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]Transition, len(m.trans))
	copy(out, m.trans)
	return out
}

// Transcript returns the full audit transcript: one line per event
// (fingerprint, delta encoding, resulting status), whether or not the
// ruling changed.
func (m *Monitor) Transcript() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	return string(m.log)
}
