package legal

import "sync"

// The compiled dispatch index. NewEngine compiles the declarative rule
// table into buckets keyed by the four dense enum dimensions of an
// Action — (Actor, Timing, DataClass, Source) — so Evaluate consults
// only the rules that could possibly fire for that action instead of
// walking the full table. Compilation consumes each rule's RuleMatch
// metadata: per-rule predicate bitsets over the enum dimensions, of
// which a rule's When predicate must be a refinement (When may only
// accept actions the Match admits). A rule with a zero Match lands in
// every bucket, so custom tables built without metadata keep the exact
// linear-walk semantics.
//
// Correctness is by construction: a bucket holds, in pipeline order,
// every rule whose Match admits the action, which is a superset of the
// rules whose When accepts it — so the dispatch walk sees the same
// matching rules in the same order as the naive scan. evaluateLinear in
// dispatch_test.go keeps the naive full-table scan alive as the
// reference implementation and proves the two byte-identical over the
// exhaustive action sweep and the fuzz corpus.

// Enum cardinalities for the dispatch index, derived from the name
// catalogs so registering a new enum value automatically widens the
// index.
var (
	numActors  = len(actorNames)
	numTimings = len(timingNames)
	numData    = len(dataClassNames)
	numSources = len(sourceNames)
)

// RuleMatch declares, per enum dimension, which Action values a rule's
// When predicate can ever accept. An empty dimension means "any value".
// The metadata must be a superset of When: if When(rc) can return true
// for an action, Match must admit that action. Rules whose predicates
// do not discriminate on a dimension (flag-only doctrines like plain
// view) simply leave it empty.
type RuleMatch struct {
	// Actors the rule can fire for; empty = any actor.
	Actors []Actor
	// Timings the rule can fire for; empty = any timing.
	Timings []Timing
	// Datas the rule can fire for; empty = any data class.
	Datas []DataClass
	// Sources the rule can fire for; empty = any source.
	Sources []Source
	// Reads lists the non-dimension Action fields the rule's When and
	// Apply consult (the four enum dimensions are implied — Match
	// already bounds them). Like Match, it must be a superset of what
	// the rule actually reads. A nil Reads means "unannotated": the
	// rule is assumed to read every field, Name included, which is
	// always sound. An empty non-nil slice means the rule reads only
	// the dimensions. compileDispatch unions these sets per bucket;
	// the ruling cache keys actions name-blind in buckets whose union
	// excludes FieldName (see Engine.cacheKey).
	Reads []Field
}

// readsMask compiles a rule's Reads annotation into a field bitset,
// conservatively widening to every field when unannotated or when the
// annotation names an unknown field.
func (m *RuleMatch) readsMask() FieldMask {
	if m.Reads == nil {
		return fieldMaskAll
	}
	var fm FieldMask
	for _, f := range m.Reads {
		if f >= numFields {
			return fieldMaskAll
		}
		fm |= 1 << f
	}
	return fm
}

// ruleBits is a rule's compiled predicate bitset: bit v set in a word
// means enum value v is admitted on that dimension.
type ruleBits struct {
	actors  uint16
	timings uint16
	datas   uint16
	sources uint16
}

// admits reports whether the bitset admits the (validated) action.
func (b *ruleBits) admits(a *Action) bool {
	return b.actors&(1<<uint(a.Actor)) != 0 &&
		b.timings&(1<<uint(a.Timing)) != 0 &&
		b.datas&(1<<uint(a.Data)) != 0 &&
		b.sources&(1<<uint(a.Source)) != 0
}

// maskOf builds the admission word for one dimension: all values 1..n
// when vals is empty, otherwise exactly the listed in-range values.
func maskOf[T ~int](vals []T, n int) uint16 {
	if len(vals) == 0 {
		return uint16(1<<(n+1)) - 2 // bits 1..n
	}
	var m uint16
	for _, v := range vals {
		if int(v) >= 1 && int(v) <= n {
			m |= 1 << uint(v)
		}
	}
	return m
}

// dispatchIndex is the compiled form of a rule table: one bucket per
// (actor, timing, data, source) combination holding the indices, in
// pipeline order, of every rule whose Match admits that combination.
// All buckets share one backing array; the index is immutable after
// compileDispatch.
type dispatchIndex struct {
	buckets [][]uint16
	// all is the identity index list 0..len(rules)-1; the linear
	// reference walk and the out-of-range fallback use it.
	all []uint16
	// nameFree is indexed by the twelve dimension bits of the packed
	// word (see packAction): bit d is set iff d packs a valid (actor,
	// timing, data, source) whose bucket holds no rule that reads Name
	// (RuleMatch.Reads). The ruling cache keys actions in such buckets
	// name-blind (see Engine.cacheKey).
	nameFree [1 << packedDimBits / 64]uint64
}

// packedDimBits is the width of the four dispatch dimensions at the
// bottom of a packed word: actor 3 bits, timing 2, data 3, source 4.
const packedDimBits = 12

// nameBlind reports whether an action with exact packed word w lies in
// a bucket whose rules never read Name.
func (x *dispatchIndex) nameBlind(w uint64) bool {
	d := w & (1<<packedDimBits - 1)
	return x.nameFree[d>>6]&(1<<(d&63)) != 0
}

// bucketIndex flattens the four enum coordinates; the caller guarantees
// each is within 1..numX (Validate enforces this before evaluation).
func bucketIndex(a Actor, t Timing, d DataClass, s Source) int {
	return ((int(a)-1)*numTimings+(int(t)-1))*numData*numSources +
		(int(d)-1)*numSources + (int(s) - 1)
}

// bucketFor returns the candidate rule list for the action, falling
// back to the full table if a coordinate is somehow out of range.
func (x *dispatchIndex) bucketFor(a *Action) []uint16 {
	i := bucketIndex(a.Actor, a.Timing, a.Data, a.Source)
	if i < 0 || i >= len(x.buckets) {
		return x.all
	}
	return x.buckets[i]
}

// compileDispatch builds the dispatch index for a rule table. Two
// passes per bucket — count, then fill into one shared backing array —
// keep the index compact (one allocation for all bucket contents).
func compileDispatch(rules []Rule) *dispatchIndex {
	bits := make([]ruleBits, len(rules))
	readsOf := make([]FieldMask, len(rules))
	for i := range rules {
		m := &rules[i].Match
		bits[i] = ruleBits{
			actors:  maskOf(m.Actors, numActors),
			timings: maskOf(m.Timings, numTimings),
			datas:   maskOf(m.Datas, numData),
			sources: maskOf(m.Sources, numSources),
		}
		readsOf[i] = m.readsMask()
	}

	n := numActors * numTimings * numData * numSources
	counts := make([]int, n)
	total := 0
	probe := Action{}
	forEachCombo(func(a Actor, t Timing, d DataClass, s Source) {
		probe.Actor, probe.Timing, probe.Data, probe.Source = a, t, d, s
		i := bucketIndex(a, t, d, s)
		for ri := range bits {
			if bits[ri].admits(&probe) {
				counts[i]++
				total++
			}
		}
	})

	x := &dispatchIndex{buckets: make([][]uint16, n)}
	backing := make([]uint16, 0, total)
	forEachCombo(func(a Actor, t Timing, d DataClass, s Source) {
		probe.Actor, probe.Timing, probe.Data, probe.Source = a, t, d, s
		i := bucketIndex(a, t, d, s)
		start := len(backing)
		var reads FieldMask
		for ri := range bits {
			if bits[ri].admits(&probe) {
				backing = append(backing, uint16(ri))
				reads |= readsOf[ri]
			}
		}
		x.buckets[i] = backing[start:len(backing):len(backing)]
		// The probe carries only dimensions, so its packed word is its
		// dimension bits; coordinates too wide to pack exactly are
		// never looked up name-blind.
		if w, exact := packAction(&probe); exact && reads&(1<<FieldName) == 0 {
			x.nameFree[w>>6] |= 1 << (w & 63)
		}
	})

	x.all = make([]uint16, len(rules))
	for i := range x.all {
		x.all[i] = uint16(i)
	}
	return x
}

// forEachCombo visits every valid (actor, timing, data, source)
// combination — the exhaustive enum sweep the index is built (and
// tested) over.
func forEachCombo(f func(Actor, Timing, DataClass, Source)) {
	for a := 1; a <= numActors; a++ {
		for t := 1; t <= numTimings; t++ {
			for d := 1; d <= numData; d++ {
				for s := 1; s <= numSources; s++ {
					f(Actor(a), Timing(t), DataClass(d), Source(s))
				}
			}
		}
	}
}

// evalScratch is reusable evaluation state: the RuleContext, the
// scratch Ruling it exposes to rules, and the scratch Verdict that
// ruling points at, whose slice capacity survives across evaluations,
// so a miss stops paying append-growth allocations. The verdict is
// copied out of the scratch (compactVerdict) before it is returned or
// cached, so the reuse is invisible to callers.
type evalScratch struct {
	rc RuleContext
	r  Ruling
	v  Verdict
}

// scratchPool holds the evaluation scratches of every engine; reset
// rebinds one to its engine and action.
var scratchPool = sync.Pool{New: func() any { return new(evalScratch) }}

// reset prepares the scratch for evaluating a, truncating the reusable
// slices without freeing their backing arrays.
func (sc *evalScratch) reset(e *Engine, a *Action) {
	sc.v = Verdict{
		Exceptions: sc.v.Exceptions[:0],
		Rationale:  sc.v.Rationale[:0],
		Citations:  sc.v.Citations[:0],
		Applied:    sc.v.Applied[:0],
	}
	sc.r = Ruling{Action: *a, Verdict: &sc.v}
	sc.rc = RuleContext{engine: e, Action: &sc.r.Action, ruling: &sc.r}
}

// compactVerdict copies src into dst with exact-size slices that dst
// owns. Rationale and Applied, both string lists, share one backing
// array, each capped at its own length so that neither can grow into
// the other. Empty slices become nil, matching what the reference walk
// (evaluateLinear) produces, so the two are DeepEqual.
func compactVerdict(dst, src *Verdict) {
	*dst = Verdict{Required: src.Required, Regime: src.Regime, Privacy: src.Privacy}
	if len(src.Exceptions) > 0 {
		dst.Exceptions = append(make([]ExceptionKind, 0, len(src.Exceptions)), src.Exceptions...)
	}
	if len(src.Citations) > 0 {
		dst.Citations = append(make([]Citation, 0, len(src.Citations)), src.Citations...)
	}
	n, m := len(src.Rationale), len(src.Applied)
	if n+m == 0 {
		return
	}
	lines := append(append(make([]string, 0, n+m), src.Rationale...), src.Applied...)
	if n > 0 {
		dst.Rationale = lines[:n:n]
	}
	if m > 0 {
		dst.Applied = lines[n:]
	}
}

// walkRules runs the pipeline over the given rule indices: each rule
// whose When accepts contributes to the ruling, a terminal rule ends
// the walk. It returns the number of candidate rules consulted. All
// doctrine lives in the rules; the walk only sequences them.
func (e *Engine) walkRules(rc *RuleContext, r *Ruling, idx []uint16) int {
	scanned := 0
	for _, ri := range idx {
		rule := &e.rules[ri]
		scanned++
		if rule.When != nil && !rule.When(rc) {
			continue
		}
		if rule.Apply != nil {
			rule.Apply(rc)
		}
		r.cite(rule.Citations...)
		r.Applied = append(r.Applied, rule.Name)
		if rule.Terminal {
			break
		}
	}
	return scanned
}

// evaluateDispatch walks only the compiled candidate bucket for a on a
// pooled scratch and compacts the verdict it built into dst.
func (e *Engine) evaluateDispatch(a *Action, dst *Verdict) {
	sc := scratchPool.Get().(*evalScratch)
	sc.reset(e, a)
	scanned := e.walkRules(&sc.rc, &sc.r, e.dispatch.bucketFor(a))
	if e.statsOn {
		e.counters.rulesScanned.Add(uint64(scanned))
	}
	compactVerdict(dst, &sc.v)
	// The pool keeps capacity, not the client's action, the engine or
	// a privacy finding.
	sc.r.Action, sc.rc, sc.v.Privacy = Action{}, RuleContext{}, nil
	scratchPool.Put(sc)
}
