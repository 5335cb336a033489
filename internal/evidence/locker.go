package evidence

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// ErrUnknownItem is returned when an ID does not resolve.
var ErrUnknownItem = errors.New("evidence: unknown item")

// ErrUnknownParent is returned by Acquire when a parent ID does not
// resolve; the derivation DAG is acyclic by construction because parents
// must pre-exist.
var ErrUnknownParent = errors.New("evidence: unknown parent item")

// Locker is an evidence store: items, their derivation DAG, and a
// tamper-evident chain of custody. Every acquisition is evaluated by the
// legal engine at intake so suppression analysis can run later. A Locker
// is safe for concurrent use.
type Locker struct {
	mu      sync.Mutex
	engine  *legal.Engine
	clock   func() time.Time
	items   map[ID]*Item
	order   []ID
	custody CustodyLog
	nextSeq int
	// scratch is the reusable buffer amendment notes are built in; the
	// locker mutex serializes access.
	scratch []byte
}

// LockerOption configures a Locker.
type LockerOption func(*Locker)

// WithClock substitutes the time source (for deterministic tests).
func WithClock(clock func() time.Time) LockerOption {
	return func(l *Locker) { l.clock = clock }
}

// WithLedger points the custody log at a shared audit ledger, so
// custody events interleave with capture and court records on one
// sealed timeline. Without it the locker seals custody into a private
// ledger of its own.
func WithLedger(led *ledger.Ledger) LockerOption {
	return func(l *Locker) { l.custody.Bind(led) }
}

// NewLocker returns an empty evidence locker.
func NewLocker(opts ...LockerOption) *Locker {
	l := &Locker{
		engine: legal.NewEngine(),
		clock:  time.Now,
		items:  make(map[ID]*Item),
	}
	for _, opt := range opts {
		opt(l)
	}
	return l
}

// AcquireRequest describes one intake into the locker.
type AcquireRequest struct {
	// Description labels the item.
	Description string
	// Content is the acquired data; only its hash and size are retained
	// on the Item.
	Content []byte
	// Custodian is who acquired it.
	Custodian string
	// Action is the investigative step performed.
	Action legal.Action
	// Held is the process the investigator actually possessed.
	Held legal.Process
	// Parents are the items this one derives from (already in the
	// locker).
	Parents []ID
	// Cleansing optionally purges inherited taint.
	Cleansing Cleansing
}

// Acquire evaluates the acquisition against the legal engine, stores the
// item, and appends a custody entry. Acquire never refuses an illegal
// acquisition — the paper's point is that such evidence is collected and
// then suppressed — but the ruling is recorded for Assess.
func (l *Locker) Acquire(req AcquireRequest) (*Item, error) {
	if req.Held == 0 {
		req.Held = legal.ProcessNone
	}
	if !req.Held.Valid() {
		return nil, fmt.Errorf("evidence: invalid held process %d", int(req.Held))
	}
	if req.Cleansing == 0 {
		req.Cleansing = CleansingNone
	}
	if !req.Cleansing.Valid() {
		return nil, fmt.Errorf("evidence: invalid cleansing doctrine %d", int(req.Cleansing))
	}
	ruling, err := l.engine.Evaluate(req.Action)
	if err != nil {
		return nil, fmt.Errorf("evidence: evaluating acquisition: %w", err)
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	for _, p := range req.Parents {
		if _, ok := l.items[p]; !ok {
			return nil, fmt.Errorf("%w: %q", ErrUnknownParent, p)
		}
	}
	l.nextSeq++
	id := ID(fmt.Sprintf("EV-%04d", l.nextSeq))
	it := &Item{
		ID:          id,
		Description: req.Description,
		SHA256:      hashContent(req.Content),
		Size:        len(req.Content),
		AcquiredAt:  l.clock(),
		Acquisition: req.Action,
		Held:        req.Held,
		Ruling:      ruling,
		Parents:     append([]ID(nil), req.Parents...),
		Cleansing:   req.Cleansing,
	}
	l.items[id] = it
	l.order = append(l.order, id)
	e := l.custody.Append(it.AcquiredAt, req.Custodian, EventAcquired, id, req.Description)
	it.LedgerSeq = uint64(e.Seq)
	return cloneItem(it), nil
}

// AmendAcquisition corrects the legal facts of a recorded acquisition —
// a consent later revoked, a scope escalation discovered during review,
// an exigency that had already lapsed — by applying an ActionDelta to
// the item's stored ruling and re-ruling it through EvaluateDelta. The
// custody chain gains an EventAmended entry whose note carries the
// delta's canonical encoding plus the ruling now in force, so the
// amendment is as tamper-evident as the original intake. The updated item is
// returned; suppression analysis (Assess) sees the amended ruling.
func (l *Locker) AmendAcquisition(id ID, custodian string, d legal.ActionDelta) (*Item, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	it, ok := l.items[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownItem, id)
	}
	ruling, err := l.engine.EvaluateDelta(&it.Ruling, d)
	if err != nil {
		return nil, fmt.Errorf("evidence: amending acquisition of %q: %w", id, err)
	}
	it.Acquisition = ruling.Action
	it.Ruling = ruling
	l.scratch = d.AppendEncoding(l.scratch[:0])
	l.scratch = append(l.scratch, " -> "...)
	l.scratch = append(l.scratch, ruling.Required.String()...)
	l.scratch = append(l.scratch, " ("...)
	l.scratch = append(l.scratch, ruling.Regime.String()...)
	l.scratch = append(l.scratch, ')')
	l.custody.Append(l.clock(), custodian, EventAmended, id, string(l.scratch))
	return cloneItem(it), nil
}

// Record appends a non-acquisition custody event (transfer, examination,
// imaging, return) for an existing item.
func (l *Locker) Record(id ID, custodian string, event CustodyEvent, note string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, ok := l.items[id]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownItem, id)
	}
	l.custody.Append(l.clock(), custodian, event, id, note)
	return nil
}

// Item returns a copy of the item with the given ID.
func (l *Locker) Item(id ID) (*Item, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	it, ok := l.items[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownItem, id)
	}
	return cloneItem(it), nil
}

// Items returns copies of all items in acquisition order.
func (l *Locker) Items() []*Item {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]*Item, 0, len(l.order))
	for _, id := range l.order {
		out = append(out, cloneItem(l.items[id]))
	}
	return out
}

// Len returns the number of items held.
func (l *Locker) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.items)
}

// Custody returns a copy of the custody chain entries.
func (l *Locker) Custody() []CustodyEntry {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.custody.Entries()
}

// VerifyCustody audits the ledger backing the custody chain.
func (l *Locker) VerifyCustody() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.custody.Verify()
}

// Ledger returns the audit ledger backing the custody chain — the
// shared one if WithLedger was used, otherwise the locker's private
// ledger.
func (l *Locker) Ledger() *ledger.Ledger {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.custody.Ledger()
}

func cloneItem(it *Item) *Item {
	cp := *it
	cp.Parents = append([]ID(nil), it.Parents...)
	return &cp
}
