package legal

import (
	"fmt"
	"slices"
	"sync/atomic"
)

// Regime identifies the body of law governing an acquisition.
type Regime int

// Governing regimes.
const (
	// RegimeNone: no constitutional or statutory restriction reaches the
	// acquisition.
	RegimeNone Regime = iota + 1
	// RegimeFourthAmendment: the acquisition is a search or seizure
	// governed by the Fourth Amendment.
	RegimeFourthAmendment
	// RegimeWiretap: real-time acquisition of communication contents,
	// governed by Title III.
	RegimeWiretap
	// RegimePenTrap: real-time acquisition of addressing and other
	// non-content information, governed by the Pen/Trap statute.
	RegimePenTrap
	// RegimeSCA: access to communications or records stored with a
	// covered service provider, governed by the SCA.
	RegimeSCA
)

var regimeNames = map[Regime]string{
	RegimeNone:            "no governing restriction",
	RegimeFourthAmendment: "Fourth Amendment",
	RegimeWiretap:         "Wiretap Act (Title III)",
	RegimePenTrap:         "Pen/Trap statute",
	RegimeSCA:             "Stored Communications Act",
}

// String returns the human-readable regime name.
func (r Regime) String() string {
	if s, ok := regimeNames[r]; ok {
		return s
	}
	return fmt.Sprintf("Regime(%d)", int(r))
}

// Ruling is the engine's determination for one Action: the action it
// echoes and the Verdict reached on it, whose fields it promotes (so
// r.Required reads the verdict's Required).
//
// The verdict is shared and must never be written: with the ruling
// cache enabled, every evaluation of one cache key (see
// Engine.cacheKey) returns the same *Verdict, and within one
// EvaluateBatch call so does every slot answered by an earlier one. A
// zero Ruling — the slot of a failed evaluation — has no verdict:
// NeedsProcess and HasException answer false on it, but any other
// promoted field read panics, so check r.Verdict first where a ruling
// may be zero.
type Ruling struct {
	// Action echoes the evaluated action.
	Action Action
	*Verdict
}

// Verdict is what the engine decided about an action. The engine
// publishes each verdict once and never writes it again, so equal
// pointers mean equal verdicts, and a consumer that renders or hashes
// verdicts can do so once per distinct pointer.
type Verdict struct {
	// Required is the minimum process the acquisition demands.
	Required Process
	// Regime is the governing body of law.
	Regime Regime
	// Exceptions lists the doctrines that eliminated or reduced the
	// process requirement, deduplicated, in the order first applied.
	Exceptions []ExceptionKind
	// Privacy is the REP finding, when a Fourth Amendment analysis ran.
	Privacy *PrivacyFinding
	// Rationale is the ordered chain of reasons for the ruling.
	Rationale []string
	// Citations are the supporting authorities, deduplicated, in the
	// order first relied upon.
	Citations []Citation
	// Applied names the doctrine rules that fired, in pipeline order —
	// the ruling's audit trail through the rule table.
	Applied []string
}

// Format prints a ruling as its action and its verdict's fields, not
// the verdict's address; a zero ruling prints a zero verdict.
func (r Ruling) Format(f fmt.State, verb rune) {
	var v Verdict
	if r.Verdict != nil {
		v = *r.Verdict
	}
	fmt.Fprintf(f, fmt.FormatString(f, verb), struct {
		Action  Action
		Verdict Verdict
	}{r.Action, v})
}

// NeedsProcess reports whether the acquisition requires any warrant, court
// order, or subpoena — the Table 1 "Need / No need" answer. A nil
// verdict needs none.
func (v *Verdict) NeedsProcess() bool {
	return v != nil && v.Required > ProcessNone
}

// HasException reports whether the verdict relied on the given
// exception. A nil verdict relied on none.
func (v *Verdict) HasException(k ExceptionKind) bool {
	return v != nil && slices.Contains(v.Exceptions, k)
}

func (v *Verdict) require(p Process, regime Regime, reason string) {
	v.Required = p
	v.Regime = regime
	v.Rationale = append(v.Rationale, reason)
}

// except records reliance on an exception doctrine. Exception kinds are
// deduplicated like citations — first reliance wins — while the reason
// always joins the rationale chain.
func (v *Verdict) except(k ExceptionKind, reason string) {
	if !v.HasException(k) {
		v.Exceptions = append(v.Exceptions, k)
	}
	v.Rationale = append(v.Rationale, reason)
}

func (v *Verdict) cite(ids ...string) {
	for _, id := range ids {
		c := Cite(id)
		if !slices.ContainsFunc(v.Citations, func(have Citation) bool { return have.ID == c.ID }) {
			v.Citations = append(v.Citations, c)
		}
	}
}

// ContainerDoctrine selects how a computer is treated for scope purposes.
// The paper notes "there is no agreement on whether a computer or other
// storage device should be classified as a single closed container or
// whether each individual file … should be treated as a separate closed
// container" (§ II-C-2); the doctrines diverge exactly on Table 1 scene
// 18.
type ContainerDoctrine int

// Container doctrines.
const (
	// ContainerPerFile treats each file as its own closed container:
	// examining a lawfully seized drive for matter outside the original
	// authority is a new search (United States v. Crist; the Table 1
	// answer, and the default).
	ContainerPerFile ContainerDoctrine = iota + 1
	// ContainerSingle treats the whole device as one container: once
	// lawfully obtained, an exhaustive examination needs no further
	// process (the Runyan/Beusch line the paper cites as the other
	// side).
	ContainerSingle
)

// String returns the doctrine name.
func (d ContainerDoctrine) String() string {
	switch d {
	case ContainerPerFile:
		return "per-file container"
	case ContainerSingle:
		return "single container"
	default:
		return fmt.Sprintf("ContainerDoctrine(%d)", int(d))
	}
}

// Engine evaluates Actions against an ordered table of doctrine rules
// (see rules.go). The zero value is not ready to use; construct engines
// with NewEngine. The default table follows the paper's Table 1 answers
// (per-file containers).
//
// NewEngine compiles the rule table into a dispatch index (see
// dispatch.go) so evaluation consults only the candidate rules for an
// action's (actor, timing, data, source) coordinates rather than the
// whole table.
//
// An Engine is safe for concurrent use: its configuration is immutable
// after NewEngine, evaluation is a pure function of the action, and the
// optional ruling cache is internally synchronized.
type Engine struct {
	container ContainerDoctrine
	rules     []Rule
	dispatch  *dispatchIndex
	cache     *rulingCache
	seed      uint64
	statsOn   bool

	cacheWanted   bool
	cacheSizeHint int
	cacheCapacity int

	counters engineCounters
}

// engineCounters are the engine's monotonic observability counters,
// collected when WithEngineStats is configured.
type engineCounters struct {
	evaluations  atomic.Uint64
	cacheMisses  atomic.Uint64
	invalid      atomic.Uint64
	rulesScanned atomic.Uint64
	batchDeduped atomic.Uint64
	batchChained atomic.Uint64
	deltaEvals   atomic.Uint64
}

// EngineStats is a point-in-time snapshot of the engine's counters —
// enough to read cache effectiveness and dispatch selectivity off a
// running engine (cmd/evaluate -engine-stats prints one). Counters are
// collected only on engines built with WithEngineStats; on other
// engines every counter reads zero (RuleTableSize and CacheSize are
// structural and always populated).
type EngineStats struct {
	// Evaluations counts evaluation requests: Evaluate calls plus
	// batch slots that were actually evaluated (batch slots answered by
	// an earlier slot count under BatchDeduped or BatchDeltaChained
	// instead, so per batch the three sum to its length).
	Evaluations uint64
	// CacheHits and CacheMisses partition cache lookups. Both are zero
	// when no cache is configured. Misses include evaluations of
	// invalid actions (the lookup ran; nothing was cached).
	CacheHits   uint64
	CacheMisses uint64
	// CacheEvictions counts entries dropped by capacity flushes (see
	// WithRulingCacheCapacity).
	CacheEvictions uint64
	// CacheSize is the number of currently memoized rulings.
	CacheSize int
	// InvalidActions counts evaluations rejected by Action.Validate.
	InvalidActions uint64
	// RulesScanned totals the candidate rules consulted across all
	// rule-table walks (cache hits walk no rules);
	// RulesScanned/(CacheMisses-InvalidActions) — or /Evaluations on an
	// uncached engine — is the average scan length, to be compared
	// against RuleTableSize, the linear-walk cost the dispatch index
	// avoids.
	RulesScanned uint64
	// BatchDeduped counts batch slots answered by an earlier slot with
	// the same ruling-cache key and the same name: the slot received
	// that slot's ruling or error instead of a fresh evaluation.
	BatchDeduped uint64
	// BatchDeltaChained counts batch slots answered by an earlier slot
	// with the same ruling-cache key under another name — a name-only
	// variant in a bucket whose rules never read Name: the slot
	// received its own action with that slot's verdict. A
	// variant of a failed slot is evaluated and counts under
	// Evaluations.
	BatchDeltaChained uint64
	// DeltaEvaluations counts EvaluateDelta calls. Each is also an
	// ordinary evaluation of the mutated action, so it counts under
	// Evaluations too, and under CacheHits or CacheMisses when a cache
	// is configured.
	DeltaEvaluations uint64
	// RuleTableSize is the engine's rule count.
	RuleTableSize int
}

// Stats returns a snapshot of the engine's counters. Counters are
// updated independently, so a snapshot taken during concurrent
// evaluation may be transiently inconsistent between fields; each
// individual counter is monotonic.
func (e *Engine) Stats() EngineStats {
	s := EngineStats{
		Evaluations:       e.counters.evaluations.Load(),
		InvalidActions:    e.counters.invalid.Load(),
		RulesScanned:      e.counters.rulesScanned.Load(),
		BatchDeduped:      e.counters.batchDeduped.Load(),
		BatchDeltaChained: e.counters.batchChained.Load(),
		DeltaEvaluations:  e.counters.deltaEvals.Load(),
		RuleTableSize:     len(e.rules),
	}
	if e.cache != nil {
		s.CacheMisses = e.counters.cacheMisses.Load()
		if s.CacheMisses < s.Evaluations {
			s.CacheHits = s.Evaluations - s.CacheMisses
		}
		s.CacheEvictions = e.cache.evictions.Load()
		s.CacheSize = e.cache.len()
	}
	return s
}

// EngineOption configures an Engine.
type EngineOption func(*Engine)

// WithContainerDoctrine selects the closed-container doctrine; the default
// is ContainerPerFile (Crist), which the paper's Table 1 follows.
func WithContainerDoctrine(d ContainerDoctrine) EngineOption {
	return func(e *Engine) { e.container = d }
}

// WithRules installs a custom doctrine table in place of DefaultRules.
// The slice is walked in order; see the Rule type for the pipeline
// contract.
func WithRules(rules []Rule) EngineOption {
	return func(e *Engine) { e.rules = rules }
}

// WithRulingCache enables the memoization cache: identical actions
// evaluate once and subsequent evaluations return the memoized ruling.
// Where no rule in an action's dispatch bucket reads Name, actions that
// differ only in Name share one memoized ruling, returned with the
// caller's name (see Engine.cacheKey).
// Lookups are lock-free (see cache.go); sizeHint seeds the initial
// bucket count (rounded up to a power of two; <= 0 selects a default)
// and the table grows as needed. Evaluation is a pure function of the
// action, so caching never changes a ruling.
func WithRulingCache(sizeHint int) EngineOption {
	return func(e *Engine) {
		e.cacheWanted = true
		e.cacheSizeHint = sizeHint
	}
}

// WithRulingCacheCapacity bounds the ruling cache at maxEntries
// memoized rulings (implying WithRulingCache). When full, the cache
// evicts by flushing a whole generation — evicted rulings are simply
// recomputed on next use — and counts the dropped entries in
// EngineStats.CacheEvictions. maxEntries <= 0 leaves the cache
// unbounded (the default).
func WithRulingCacheCapacity(maxEntries int) EngineOption {
	return func(e *Engine) {
		e.cacheWanted = true
		e.cacheCapacity = maxEntries
	}
}

// WithEngineStats enables counter collection (see EngineStats). Off by
// default: the cache-hit path is then entirely free of shared-memory
// writes, and a hit costs a hash, one lock-free lookup, and a
// structural verify. Enabling stats adds one atomic counter update per
// evaluation.
func WithEngineStats() EngineOption {
	return func(e *Engine) { e.statsOn = true }
}

// NewEngine returns a ready-to-use compliance engine, with the rule
// table compiled into its dispatch index.
func NewEngine(opts ...EngineOption) *Engine {
	e := &Engine{container: ContainerPerFile, seed: newHashSeed()}
	for _, opt := range opts {
		opt(e)
	}
	if e.rules == nil {
		e.rules = DefaultRules()
	}
	e.dispatch = compileDispatch(e.rules)
	if e.cacheWanted {
		e.cache = newRulingCache(e.cacheSizeHint, e.cacheCapacity)
	}
	return e
}

// Container reports the engine's configured closed-container doctrine.
func (e *Engine) Container() ContainerDoctrine { return e.container }

// Rules returns a copy of the engine's doctrine table, in pipeline order.
func (e *Engine) Rules() []Rule {
	out := make([]Rule, len(e.rules))
	copy(out, e.rules)
	return out
}

// Evaluate determines the process an acquisition requires, the governing
// regime, applicable exceptions, and a rationale chain, by walking the
// candidate rules for the action in pipeline order: each rule whose
// predicate matches contributes to the ruling, and a terminal rule ends
// the walk. It is a pure function of the action: identical actions
// yield equal verdicts, and where no candidate rule reads Name, so do
// actions that differ only in Name (which is what makes the ruling
// cache sound).
func (e *Engine) Evaluate(a Action) (Ruling, error) {
	if e.cache == nil {
		return e.evaluateMiss(&a, 0, 0, "")
	}
	w, exact := packAction(&a)
	h, name := e.cacheKey(&a, w, exact)
	if v := e.lookup(&a, h, w, exact, name); v != nil {
		return Ruling{Action: a, Verdict: v}, nil
	}
	return e.evaluateMiss(&a, h, w, name)
}

// EvaluateDelta re-rules a previously ruled action after the given
// delta: it applies d to a copy of prev.Action and evaluates the result
// exactly as Evaluate does, so it returns what Evaluate would return
// for the mutated action, error cases included. prev may come from any
// engine (only its Action is read). On a cached engine a delta that
// lands on an already ruled shape is a warm cache hit and allocates
// nothing.
func (e *Engine) EvaluateDelta(prev *Ruling, d ActionDelta) (Ruling, error) {
	if prev == nil {
		return Ruling{}, fmt.Errorf("legal: EvaluateDelta: nil previous ruling")
	}
	if e.statsOn {
		e.counters.deltaEvals.Add(1)
	}
	a := prev.Action
	d.Apply(&a)
	return e.Evaluate(a)
}

// lookup is the hit path of every evaluation: it returns the memoized
// verdict for a, keyed as (h, name) with packed word w (see
// Engine.cacheKey), or nil on a miss or an uncached engine. It looks
// the action up before validating: only validated actions are ever
// cached, and a hash hit is verified against the cached (validated)
// key, so a hit implies validity. It allocates nothing and writes
// nothing but the stats counter.
func (e *Engine) lookup(a *Action, h, w uint64, exact bool, name string) *Verdict {
	if e.cache == nil {
		return nil
	}
	v := e.cache.probe(h, w, exact, name, a)
	if v != nil && e.statsOn {
		e.counters.evaluations.Add(1)
	}
	return v
}

// evaluateMiss is the slow path of every evaluation: validate, walk the
// dispatch bucket, and, when a cache exists, memoize under the key
// (h, name) with packed word w. An uncached engine allocates the
// verdict on its own; a cached one builds it inside the cache entry.
func (e *Engine) evaluateMiss(a *Action, h, w uint64, name string) (Ruling, error) {
	if e.statsOn {
		e.counters.evaluations.Add(1)
		if e.cache != nil {
			e.counters.cacheMisses.Add(1)
		}
	}
	if err := a.Validate(); err != nil {
		if e.statsOn {
			e.counters.invalid.Add(1)
		}
		return Ruling{}, err
	}
	if e.cache == nil {
		v := new(Verdict)
		e.evaluateDispatch(a, v)
		return Ruling{Action: *a, Verdict: v}, nil
	}
	en := &cacheEntry{hash: h, pw: w, key: *a}
	en.key.Name = name
	e.evaluateDispatch(a, &en.verdict)
	return Ruling{Action: *a, Verdict: e.cache.put(en)}, nil
}
