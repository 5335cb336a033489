// Package investigation orchestrates end-to-end criminal investigations
// the way the paper's Section III describes them: facts accumulate into a
// showing, the showing supports process applications, acquisitions run
// through the legal engine, the fruits land in a chain-of-custody locker,
// and a suppression hearing at the end decides what survives.
//
// The package also packages the paper's two Section IV case studies as
// runnable flows: the anonymous-P2P timing investigation (no process
// needed) and the DSSS watermark traceback (court order for the rate
// collection, then a warrant from the correlation fact).
package investigation

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"lawgate/internal/court"
	"lawgate/internal/evidence"
	"lawgate/internal/ledger"
	"lawgate/internal/legal"
)

// ErrNoOrder is returned when an acquisition requires process the case
// does not hold.
var ErrNoOrder = errors.New("investigation: no live order grants the required process")

// Case is one investigation: facts, orders, evidence, and narrative.
type Case struct {
	// Name labels the case.
	Name string

	clock  func() time.Time
	engine *legal.Engine
	court  *court.Court
	locker *evidence.Locker
	led    *ledger.Ledger
	facts  []court.Fact
	orders []*court.Order
	log    []string
	strict bool
}

// CaseOption configures a Case.
type CaseOption func(*Case)

// WithCaseClock substitutes the time source for the case, its court, and
// its evidence locker.
func WithCaseClock(clock func() time.Time) CaseOption {
	return func(c *Case) { c.clock = clock }
}

// WithStrictAcquisition makes Acquire refuse under-authorized actions
// instead of collecting tainted evidence. Default is permissive: the
// paper's failure mode — collect now, suppress later — stays observable.
func WithStrictAcquisition() CaseOption {
	return func(c *Case) { c.strict = true }
}

// NewCase opens an investigation. The case's engine carries a ruling
// cache: investigations routinely re-evaluate the same action shape (a
// pre-flight Evaluate, then the Acquire itself, then suppression
// analysis), and rulings are immutable, so memoization is sound. The
// engine also collects counters (see EngineStats) — case flows are far
// from the evaluation hot path, so the one atomic update per
// evaluation is free observability.
func NewCase(name string, opts ...CaseOption) *Case {
	c := &Case{
		Name:   name,
		clock:  time.Now,
		engine: legal.NewEngine(legal.WithRulingCache(0), legal.WithEngineStats()),
	}
	for _, opt := range opts {
		opt(c)
	}
	// One sealed timeline per case: custody, court, and capture records
	// interleave on a single hash-chained ledger, so tampering with any
	// producer's history invalidates them all.
	c.led = ledger.New()
	c.court = court.NewCourt(court.WithCourtClock(c.clock), court.WithCourtLedger(c.led))
	c.locker = evidence.NewLocker(evidence.WithClock(c.clock), evidence.WithLedger(c.led))
	return c
}

// Logf appends a timestamped narrative line.
func (c *Case) Logf(format string, args ...interface{}) {
	c.log = append(c.log, fmt.Sprintf("[%s] %s",
		c.clock().Format("2006-01-02 15:04"), fmt.Sprintf(format, args...)))
}

// Narrative returns the case log.
func (c *Case) Narrative() []string {
	out := make([]string, len(c.log))
	copy(out, c.log)
	return out
}

// AddFact records an investigative fact.
func (c *Case) AddFact(f court.Fact) {
	c.facts = append(c.facts, f)
	c.Logf("fact recorded: %s — %s", f.Kind, f.Description)
}

// Facts returns the recorded facts.
func (c *Case) Facts() []court.Fact {
	out := make([]court.Fact, len(c.facts))
	copy(out, c.facts)
	return out
}

// Showing returns the strongest showing the current facts support.
func (c *Case) Showing() legal.Showing {
	return court.AssessShowing(c.facts, c.clock())
}

// ApplyFor petitions the court for process on the strength of the case's
// facts. Granted orders accumulate on the case.
func (c *Case) ApplyFor(process legal.Process, place string, things []string) (*court.Order, error) {
	o, err := c.court.Apply(court.Application{
		Process:   process,
		Facts:     c.facts,
		Place:     place,
		Things:    things,
		Applicant: c.Name,
	})
	if err != nil {
		c.Logf("application for %s DENIED: %v", process, err)
		return nil, err
	}
	c.orders = append(c.orders, o)
	c.Logf("application for %s GRANTED (%s, showing: %s)", process, o.Serial, o.ShowingFound)
	return o, nil
}

// Orders returns the orders obtained so far.
func (c *Case) Orders() []*court.Order {
	out := make([]*court.Order, len(c.orders))
	copy(out, c.orders)
	return out
}

// HeldProcess returns the strongest unexpired process the case holds.
func (c *Case) HeldProcess() legal.Process {
	held := legal.ProcessNone
	now := c.clock()
	for _, o := range c.orders {
		if !o.Expired(now) && o.Process > held {
			held = o.Process
		}
	}
	return held
}

// Evaluate runs the legal engine over an action without acquiring.
func (c *Case) Evaluate(a legal.Action) (legal.Ruling, error) {
	return c.engine.Evaluate(a)
}

// EvaluateBatch pre-flights many candidate actions concurrently through
// the case engine — the "which of these collection designs need process"
// triage the paper's Section V recommends — without acquiring anything.
// Rulings are returned in input order.
func (c *Case) EvaluateBatch(ctx context.Context, actions []legal.Action) ([]legal.Ruling, error) {
	return c.engine.EvaluateBatch(ctx, actions)
}

// EngineStats snapshots the case engine's evaluation counters — how
// many rulings the investigation requested, how many the cache
// answered, and how selective the rule dispatch was.
func (c *Case) EngineStats() legal.EngineStats {
	return c.engine.Stats()
}

// Acquire performs an acquisition under the case's currently held process
// and books the result into evidence. In strict mode an under-authorized
// acquisition fails with ErrNoOrder; otherwise it proceeds and the taint
// is recorded for the suppression hearing.
//
// Acquire is scope-blind: any live order's process tier counts. When the
// acquisition must rest on a *specific* order whose scope matters — the
// Crist situation, where the original seizure warrant does not authorize
// hash-searching the whole drive — use AcquireUnder instead.
func (c *Case) Acquire(desc string, content []byte, action legal.Action, parents ...evidence.ID) (*evidence.Item, error) {
	return c.acquire(c.HeldProcess(), desc, content, action, parents...)
}

// AcquireUnder performs an acquisition relying on one specific order. The
// order contributes its process tier only if it is unexpired and its
// scope covers the evidentiary category; otherwise the acquisition
// proceeds (or, in strict mode, fails) as if no process were held. A nil
// order means none is relied upon.
func (c *Case) AcquireUnder(o *court.Order, category, desc string, content []byte, action legal.Action, parents ...evidence.ID) (*evidence.Item, error) {
	held := legal.ProcessNone
	switch {
	case o == nil:
		c.Logf("acquisition %q relies on no order", desc)
	case o.Expired(c.clock()):
		c.Logf("acquisition %q relies on %s, but it has EXPIRED", desc, o.Serial)
	case !o.Covers(category):
		c.Logf("acquisition %q relies on %s, but category %q is OUTSIDE its scope", desc, o.Serial, category)
	default:
		held = o.Process
	}
	return c.acquire(held, desc, content, action, parents...)
}

func (c *Case) acquire(held legal.Process, desc string, content []byte, action legal.Action, parents ...evidence.ID) (*evidence.Item, error) {
	ruling, err := c.engine.Evaluate(action)
	if err != nil {
		return nil, err
	}
	if c.strict && !held.Satisfies(ruling.Required) {
		c.Logf("acquisition %q REFUSED: requires %s, case holds %s", desc, ruling.Required, held)
		return nil, fmt.Errorf("%w: requires %s, hold %s", ErrNoOrder, ruling.Required, held)
	}
	item, err := c.locker.Acquire(evidence.AcquireRequest{
		Description: desc,
		Content:     content,
		Custodian:   c.Name,
		Action:      action,
		Held:        held,
		Parents:     parents,
	})
	if err != nil {
		return nil, err
	}
	status := "lawful"
	if !item.LawfullyAcquired() {
		status = "UNLAWFUL (will be challenged)"
	}
	c.Logf("acquired %s (%s): requires %s, held %s — %s",
		item.ID, desc, ruling.Required, held, status)
	return item, nil
}

// AmendAcquisition corrects the legal facts of a booked acquisition —
// a consent the suspect has since revoked, a scope escalation found in
// review — by applying the ActionDelta through the locker's re-ruling
// (evidence.Locker.AmendAcquisition). The custody chain gains
// the tamper-evident amendment entry, and the case narrative records
// whether the amendment flipped the item's lawfulness, since that is
// what the suppression hearing will turn on.
func (c *Case) AmendAcquisition(id evidence.ID, d legal.ActionDelta) (*evidence.Item, error) {
	before, err := c.locker.Item(id)
	if err != nil {
		return nil, err
	}
	item, err := c.locker.AmendAcquisition(id, c.Name, d)
	if err != nil {
		c.Logf("amendment of %s FAILED: %v", id, err)
		return nil, err
	}
	switch was, is := before.LawfullyAcquired(), item.LawfullyAcquired(); {
	case was && !is:
		c.Logf("amended %s (%s): now requires %s, held %s — acquisition became UNLAWFUL (will be challenged)",
			id, d.Encoding(), item.Ruling.Required, item.Held)
	case !was && is:
		c.Logf("amended %s (%s): now requires %s, held %s — acquisition became lawful",
			id, d.Encoding(), item.Ruling.Required, item.Held)
	default:
		c.Logf("amended %s (%s): requires %s, held %s — lawfulness unchanged",
			id, d.Encoding(), item.Ruling.Required, item.Held)
	}
	return item, nil
}

// Evidence returns the booked items.
func (c *Case) Evidence() []*evidence.Item { return c.locker.Items() }

// VerifyCustody validates the chain of custody.
func (c *Case) VerifyCustody() error { return c.locker.VerifyCustody() }

// Custody returns a copy of the chain-of-custody entries.
func (c *Case) Custody() []evidence.CustodyEntry { return c.locker.Custody() }

// Ledger returns the case's audit ledger — the single sealed timeline
// custody, court, and capture records share.
func (c *Case) Ledger() *ledger.Ledger { return c.led }

// VerifyLedger audits the whole case ledger.
func (c *Case) VerifyLedger() error { return c.led.Verify() }

// LedgerCheckpoint returns the portable commitment to the ledger's
// current state, for reports and opinions to cite.
func (c *Case) LedgerCheckpoint() ledger.Checkpoint { return c.led.Checkpoint() }

// ExecuteSearch executes a warrant through the case court, so the
// execution lands on the case ledger next to the warrant's own
// authorization record.
func (c *Case) ExecuteSearch(o *court.Order, place string, items []court.SearchItem) (court.ExecutionResult, error) {
	return c.court.Execute(o, c.clock(), place, items)
}

// SuppressionHearing runs the exclusionary-rule analysis, logs the
// outcome, and seals one KindCaseEvent record per ruling into the case
// ledger — the hearing itself becomes part of the tamper-evident
// record. (Assess is the read-only variant.)
func (c *Case) SuppressionHearing() []evidence.Assessment {
	as := c.locker.Assess()
	now := c.clock().UnixNano()
	drafts := make([]ledger.Draft, len(as))
	for i, a := range as {
		c.Logf("hearing: %s — %s", a.ItemID, a.Status)
		drafts[i] = ledger.Draft{
			At:      now,
			Kind:    ledger.KindCaseEvent,
			Code:    uint32(a.Status),
			Actor:   c.Name,
			Subject: string(a.ItemID),
			Note:    "suppression hearing: " + a.Status.String(),
		}
	}
	// One hearing, one seal: the per-item rulings land as a single
	// batch, amortizing the ledger's Merkle maintenance.
	c.led.AppendBatch(drafts)
	return as
}

// Assess runs the exclusionary-rule analysis without touching the
// narrative (for report and opinion generators).
func (c *Case) Assess() []evidence.Assessment {
	return c.locker.Assess()
}

// Report renders a human-readable case summary.
func (c *Case) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "CASE: %s\n", c.Name)
	fmt.Fprintf(&b, "Showing: %s; held process: %s\n", c.Showing(), c.HeldProcess())
	fmt.Fprintf(&b, "Facts (%d):\n", len(c.facts))
	for _, f := range c.facts {
		fmt.Fprintf(&b, "  - [%s] %s\n", f.Kind, f.Description)
	}
	fmt.Fprintf(&b, "Orders (%d):\n", len(c.orders))
	for _, o := range c.orders {
		fmt.Fprintf(&b, "  - %s: %s (expires %s)\n", o.Serial, o.Process, o.ExpiresAt.Format("2006-01-02"))
	}
	items := c.locker.Items()
	fmt.Fprintf(&b, "Evidence (%d):\n", len(items))
	for _, it := range items {
		fmt.Fprintf(&b, "  - %s: %s (sha256 %s…)\n", it.ID, it.Description, it.SHA256[:12])
	}
	fmt.Fprintf(&b, "Narrative:\n")
	for _, line := range c.log {
		fmt.Fprintf(&b, "  %s\n", line)
	}
	return b.String()
}
