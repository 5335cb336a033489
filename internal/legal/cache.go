package legal

import (
	"strconv"
	"sync"
	"sync/atomic"
)

// The ruling cache. Lookups are lock-free: the hot path hashes the
// action's cache key to 64 bits (Engine.cacheKey — no allocation, no
// fingerprint string), walks one chained bucket of an atomically
// published table, and verifies any hash hit with a full structural
// comparison against the key stored in the entry — so correctness
// never depends on hash uniqueness. Writers serialize on a single
// mutex; they publish immutable entries and whole-table replacements
// (growth, eviction flushes) with atomic stores, which readers observe
// with atomic loads.
//
// The key is what the rules read. An action whose dispatch bucket
// provably never reads Name (dispatchIndex.nameBlind) is keyed with an
// empty name, so every case of one legal shape shares one memoized
// ruling and a hit re-labels it with the caller's name; actions in
// buckets that read Name, and actions that do not pack exactly, keep
// their name in the key.
//
// The canonical string fingerprint below predates the hash cache and
// remains the exported, injective encoding of an Action (used by tests
// and available to external callers for durable keying); the runtime
// cache no longer builds it.

// Fingerprint returns a canonical, collision-free encoding of every field
// that influences evaluation (which is all of them, including Name, since
// the ruling echoes the action). Two actions with equal fingerprints are
// identical, and the engine is a pure function of the action, so the
// fingerprint is a sound memoization key.
func (a *Action) Fingerprint() string {
	var buf [96]byte
	return string(a.AppendFingerprint(buf[:0]))
}

// fpInt appends v in decimal with a field separator. Enum values are
// almost always a single digit; the general path handles the rest.
func fpInt(buf []byte, v int) []byte {
	if v >= 0 && v < 10 {
		return append(buf, byte('0'+v), '|')
	}
	buf = strconv.AppendInt(buf, int64(v), 10)
	return append(buf, '|')
}

// fpBool appends a bool flag with a field separator.
func fpBool(buf []byte, v bool) []byte {
	if v {
		return append(buf, '1', '|')
	}
	return append(buf, '0', '|')
}

// AppendFingerprint appends the canonical encoding to buf and returns
// the extended slice. Callers that fingerprint a stream of actions
// (capture monitors, evidence lockers, batch pre-passes) reuse one
// buffer across events instead of allocating a string per call; the
// bytes appended are exactly Fingerprint's.
func (a *Action) AppendFingerprint(buf []byte) []byte {
	buf = fpInt(buf, int(a.Actor))
	buf = fpInt(buf, int(a.Timing))
	buf = fpInt(buf, int(a.Data))
	buf = fpInt(buf, int(a.Source))
	buf = fpBool(buf, a.Encrypted)
	buf = append(buf, '[')
	for _, e := range a.Exposure {
		buf = fpInt(buf, int(e))
	}
	buf = append(buf, ']')
	if c := a.Consent; c != nil {
		buf = append(buf, 'C', '{')
		buf = fpInt(buf, int(c.Scope))
		buf = fpBool(buf, c.Revoked)
		buf = fpBool(buf, c.ExceedsScope)
		buf = fpBool(buf, c.AllPartiesRequired)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'C', '-')
	}
	if x := a.Exigency; x != nil {
		buf = append(buf, 'X', '{')
		buf = fpInt(buf, int(x.Kind))
		buf = fpBool(buf, x.Approved)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'X', '-')
	}
	buf = fpBool(buf, a.PlainView)
	buf = fpBool(buf, a.LawfulVantage)
	buf = fpBool(buf, a.ProbationSearch)
	if t := a.Tech; t != nil {
		buf = append(buf, 'T', '{')
		buf = fpBool(buf, t.GeneralPublicUse)
		buf = fpBool(buf, t.RevealsHomeInterior)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'T', '-')
	}
	if w := a.Workplace; w != nil {
		buf = append(buf, 'W', '{')
		buf = fpBool(buf, w.GovernmentEmployer)
		buf = fpBool(buf, w.WorkRelated)
		buf = fpBool(buf, w.JustifiedAtInception)
		buf = fpBool(buf, w.PermissibleScope)
		buf = append(buf, '}')
	} else {
		buf = append(buf, 'W', '-')
	}
	buf = fpInt(buf, int(a.ProviderRole))
	buf = fpBool(buf, a.ProviderPublic)
	buf = fpBool(buf, a.InterceptsThirdParty)
	buf = fpBool(buf, a.SearchBeyondAuthority)
	buf = append(buf, a.Name...)
	return buf
}

// mix64 is the splitmix64 finalizer: a full-avalanche bijection that
// spreads packed field words across all 64 bits.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// seedCounter distinguishes hash seeds across engines; determinism is
// deliberate (it keeps whole-program runs reproducible) and costs
// nothing, since the hash never decides correctness.
var seedCounter atomic.Uint64

func newHashSeed() uint64 {
	return mix64(seedCounter.Add(1) ^ 0x6c62272e07bb0142)
}

// le64 loads eight little-endian bytes of s at i (the compiler combines
// the byte loads into one 8-byte load).
func le64(s string, i int) uint64 {
	_ = s[i+7]
	return uint64(s[i]) | uint64(s[i+1])<<8 | uint64(s[i+2])<<16 | uint64(s[i+3])<<24 |
		uint64(s[i+4])<<32 | uint64(s[i+5])<<40 | uint64(s[i+6])<<48 | uint64(s[i+7])<<56
}

// hashString is a sampled string hash: length plus the first and last
// 8-byte words, combined with position-distinct multipliers
// (independent, so they pipeline) and finalized by the caller's mix64.
// Strings up to 16 bytes are covered in full; longer strings that
// differ only in unsampled middle bytes collide, which costs a
// structural compare and a longer cache chain but never a wrong ruling
// (every hit is verified). That tradeoff buys a hash several times
// cheaper than a full-content hash on the sentence-length action names
// the scenario tables use.
func hashString(seed uint64, s string) uint64 {
	n := len(s)
	h := seed ^ uint64(n)*0x9e3779b97f4a7c15
	switch {
	case n >= 8:
		h ^= le64(s, 0)*0xbf58476d1ce4e5b9 ^ le64(s, n-8)*0xff51afd7ed558ccd
	case n > 0:
		var x uint64
		for i := 0; i < n; i++ {
			x |= uint64(s[i]) << (8 * uint(i))
		}
		h ^= x * 0xbf58476d1ce4e5b9
	}
	return h
}

// wInexact marks a packed word that lost information to masking. Exact
// packed words only use bits 0..43, so the all-ones sentinel can never
// equal one.
const wInexact = ^uint64(0)

// b2u converts a bool to 0/1 branchlessly (the compiler recognizes
// this shape and emits a plain zero-extending load, no branch).
func b2u(b bool) uint64 {
	var x uint64
	if b {
		x = 1
	}
	return x
}

// packAction packs every scalar field of the action — the four enum
// coordinates, ProviderRole, all boolean flags, and the presence and
// contents of the four optional sub-structs — into fixed bit positions
// of one word. exact reports whether the packing is injective: it is
// whenever every field fits its allotted bits, which Validate
// guarantees for all valid actions. When exact, two actions with equal
// packed words have identical scalar state, and only Name and Exposure
// remain to be compared; when a field is out of range the word is
// lossy (forced to wInexact) and callers must fall back to the full
// structural compare. Flag packing is branchless on purpose: the hot
// path hashes actions whose flag patterns vary call to call, and a
// dozen data-dependent branches here would mispredict.
func packAction(a *Action) (w uint64, exact bool) {
	// One combined range check: a value is in range iff no bits remain
	// above its field's mask (negative values set the high bits).
	lost := uint64(a.Actor)&^7 | uint64(a.Timing)&^3 | uint64(a.Data)&^7 |
		uint64(a.Source)&^15 | uint64(a.ProviderRole)&^15
	w = uint64(a.Actor)&7 |
		uint64(a.Timing)&3<<3 |
		uint64(a.Data)&7<<5 |
		uint64(a.Source)&15<<8 |
		uint64(a.ProviderRole)&15<<12 |
		b2u(a.Encrypted)<<16 |
		b2u(a.PlainView)<<17 |
		b2u(a.LawfulVantage)<<18 |
		b2u(a.ProbationSearch)<<19 |
		b2u(a.ProviderPublic)<<20 |
		b2u(a.InterceptsThirdParty)<<21 |
		b2u(a.SearchBeyondAuthority)<<22
	if c := a.Consent; c != nil {
		w |= 1<<23 | uint64(c.Scope)&15<<24 |
			b2u(c.Revoked)<<28 |
			b2u(c.ExceedsScope)<<29 |
			b2u(c.AllPartiesRequired)<<30
		lost |= uint64(c.Scope) &^ 15
	}
	if x := a.Exigency; x != nil {
		w |= 1<<31 | uint64(x.Kind)&7<<32 | b2u(x.Approved)<<35
		lost |= uint64(x.Kind) &^ 7
	}
	if t := a.Tech; t != nil {
		w |= 1<<36 |
			b2u(t.GeneralPublicUse)<<37 |
			b2u(t.RevealsHomeInterior)<<38
	}
	if wp := a.Workplace; wp != nil {
		w |= 1<<39 |
			b2u(wp.GovernmentEmployer)<<40 |
			b2u(wp.WorkRelated)<<41 |
			b2u(wp.JustifiedAtInception)<<42 |
			b2u(wp.PermissibleScope)<<43
	}
	if lost != 0 {
		return wInexact, false
	}
	return w, true
}

// cacheKey derives the ruling-cache key of a, whose packed word is w
// (exact as packAction reports it): the name the key carries — empty
// when a's dispatch bucket never reads Name — and the key's hash. Every
// cache lookup and insert, and the batch pass's search for an earlier
// slot with the same key, go through it and through keyMatches, so the
// cache and the batch cannot disagree on what a key is.
//
// Dropping the name keeps "a verified hit implies a validated action":
// only validated actions are stored, verification still compares every
// other field exactly, and Validate's verdict never depends on Name.
func (e *Engine) cacheKey(a *Action, w uint64, exact bool) (h uint64, name string) {
	h = e.seed // hashString(seed, "")
	if !exact || !e.dispatch.nameBlind(w) {
		name = a.Name
		h = hashString(e.seed, name)
	}
	h ^= w
	for _, x := range a.Exposure {
		h = h*0x9e3779b97f4a7c15 + uint64(x)
	}
	return mix64(h), name
}

// keyMatches reports whether a — packed to w, exact as packAction
// reports it, and keyed with name — has the same cache key as b, packed
// to kw and keyed with kname; the caller has already compared the key
// hashes. Verification is exact, never probabilistic: when the packed
// word is injective (the normal case — see packAction) equality reduces
// to comparing that word plus the key name and Exposure; otherwise it
// falls back to the full field-by-field compare.
func keyMatches(a *Action, w uint64, exact bool, name string, b *Action, kw uint64, kname string) bool {
	if exact {
		return kw == w && kname == name && exposuresEqual(a.Exposure, b.Exposure)
	}
	return actionsEqual(b, a)
}

// exposuresEqual compares the exposure sequences elementwise.
func exposuresEqual(a, b []ExposureFact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// actionsEqual reports full structural equality of two actions — the
// verification step behind every cache hash hit.
func actionsEqual(a, b *Action) bool {
	if a.Actor != b.Actor || a.Timing != b.Timing || a.Data != b.Data ||
		a.Source != b.Source || a.ProviderRole != b.ProviderRole ||
		a.Encrypted != b.Encrypted || a.PlainView != b.PlainView ||
		a.LawfulVantage != b.LawfulVantage || a.ProbationSearch != b.ProbationSearch ||
		a.ProviderPublic != b.ProviderPublic ||
		a.InterceptsThirdParty != b.InterceptsThirdParty ||
		a.SearchBeyondAuthority != b.SearchBeyondAuthority ||
		a.Name != b.Name || len(a.Exposure) != len(b.Exposure) {
		return false
	}
	for i := range a.Exposure {
		if a.Exposure[i] != b.Exposure[i] {
			return false
		}
	}
	if (a.Consent == nil) != (b.Consent == nil) ||
		(a.Consent != nil && *a.Consent != *b.Consent) {
		return false
	}
	if (a.Exigency == nil) != (b.Exigency == nil) ||
		(a.Exigency != nil && *a.Exigency != *b.Exigency) {
		return false
	}
	if (a.Tech == nil) != (b.Tech == nil) ||
		(a.Tech != nil && *a.Tech != *b.Tech) {
		return false
	}
	if (a.Workplace == nil) != (b.Workplace == nil) ||
		(a.Workplace != nil && *a.Workplace != *b.Workplace) {
		return false
	}
	return true
}

// defaultCacheSlots is the initial bucket count WithRulingCache(0)
// selects.
const defaultCacheSlots = 256

// cacheEntry is one immutable memoized ruling: the key's 64-bit hash,
// the key action's packed word (see packAction), the ruling, and the
// intrusive chain link. The ruling's Action is the verification key
// (its Name is the key name — see Engine.cacheKey) and the packed word
// its cheap verifier. Entries are never mutated after publication.
type cacheEntry struct {
	hash   uint64
	pw     uint64
	ruling Ruling
	next   *cacheEntry
}

// cacheTable is one immutable-shape hash table generation: a
// power-of-two slot array of atomically readable chain heads.
type cacheTable struct {
	mask  uint64
	slots []atomic.Pointer[cacheEntry]
}

func newCacheTable(slots int) *cacheTable {
	return &cacheTable{
		mask:  uint64(slots - 1),
		slots: make([]atomic.Pointer[cacheEntry], slots),
	}
}

// rulingCache memoizes rulings keyed by action hash with structural
// verification. Readers are lock-free; writers serialize on mu. A
// capacity of zero means unbounded; a positive capacity evicts by
// flushing the whole generation once full (cheap, and correct for a
// memoization cache — evicted entries are simply recomputed).
type rulingCache struct {
	table     atomic.Pointer[cacheTable]
	mu        sync.Mutex
	count     int
	capacity  int
	evictions atomic.Uint64
}

func newRulingCache(sizeHint, capacity int) *rulingCache {
	slots := defaultCacheSlots
	if sizeHint > 0 {
		slots = 1
		for slots < sizeHint {
			slots <<= 1
		}
	}
	c := &rulingCache{capacity: capacity}
	c.table.Store(newCacheTable(slots))
	return c
}

// probe returns the entry memoizing the key (h, name) of a, whose
// packed word is w, or nil. Lock-free: one atomic table load, one
// atomic slot load, a chain walk over immutable entries, each hash hit
// verified by keyMatches.
func (c *rulingCache) probe(h, w uint64, exact bool, name string, a *Action) *cacheEntry {
	t := c.table.Load()
	for en := t.slots[h&t.mask].Load(); en != nil; en = en.next {
		if en.hash == h && keyMatches(a, w, exact, name, &en.ruling.Action, en.pw, en.ruling.Action.Name) {
			return en
		}
	}
	return nil
}

// put memoizes r, whose Action is its key and packs to w. Double-checks
// for a racing insert, flushes the generation when at capacity, and
// grows at load factor 1.
func (c *rulingCache) put(h, w uint64, r *Ruling) {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.table.Load()
	for e := t.slots[h&t.mask].Load(); e != nil; e = e.next {
		if e.hash == h && actionsEqual(&e.ruling.Action, &r.Action) {
			return
		}
	}
	if c.capacity > 0 && c.count >= c.capacity {
		c.evictions.Add(uint64(c.count))
		c.count = 0
		t = newCacheTable(len(t.slots))
		c.table.Store(t)
	} else if c.count >= len(t.slots) {
		t = c.grow(t)
	}
	slot := &t.slots[h&t.mask]
	slot.Store(&cacheEntry{hash: h, pw: w, ruling: *r, next: slot.Load()})
	c.count++
}

// grow publishes a table with twice the slots. Entries are re-created
// rather than re-linked so the old generation's chains stay intact for
// readers still walking them.
func (c *rulingCache) grow(old *cacheTable) *cacheTable {
	t := newCacheTable(len(old.slots) * 2)
	for i := range old.slots {
		for e := old.slots[i].Load(); e != nil; e = e.next {
			slot := &t.slots[e.hash&t.mask]
			slot.Store(&cacheEntry{hash: e.hash, pw: e.pw, ruling: e.ruling, next: slot.Load()})
		}
	}
	c.table.Store(t)
	return t
}

// len reports the number of memoized rulings (distinct keys).
func (c *rulingCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.count
}

// CacheSize reports how many distinct cache keys the engine has
// memoized — one per legal shape in buckets that never read Name, one
// per action elsewhere; zero when no cache is configured.
func (e *Engine) CacheSize() int {
	if e.cache == nil {
		return 0
	}
	return e.cache.len()
}
