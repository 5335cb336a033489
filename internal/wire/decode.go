package wire

import (
	"bytes"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"

	"lawgate/internal/legal"
)

// maxSkipDepth bounds nesting while skipping unknown fields, so a
// hostile deeply-nested body cannot blow the stack (encoding/json has
// the same 10000 cap).
const maxSkipDepth = 10000

var errUnexpectedEnd = errors.New("wire: unexpected end of JSON input")

// remSlots is the size of the batch decoder's remainder table; a
// power of two.
const remSlots = 256

// decoder is the pooled per-call parse state: the input, a cursor, a
// scratch buffer for escaped strings, a fixed key-folding buffer, and
// the table of action remainders DecodeActions has decoded in this
// call. Only the scratch's capacity and the table outlive a call; no
// decoded string is kept for the next one.
type decoder struct {
	data    []byte
	pos     int
	scratch []byte
	keybuf  [32]byte
	rems    [remSlots]remSpan
}

// remSpan records that data[start:end], the remainder of the action in
// batch slot slot, decoded without error and without setting Name. end
// is 0 only in an empty entry.
type remSpan struct {
	start, end, slot int
}

var decPool = sync.Pool{
	New: func() any {
		return &decoder{scratch: make([]byte, 0, 256)}
	},
}

func getDecoder(data []byte) *decoder {
	d := decPool.Get().(*decoder)
	d.data, d.pos = data, 0
	return d
}

func putDecoder(d *decoder) {
	d.data = nil
	if cap(d.scratch) <= maxRetainedBuf {
		decPool.Put(d)
	}
}

func (d *decoder) errAt(msg string) error {
	return fmt.Errorf("wire: %s at offset %d", msg, d.pos)
}

func (d *decoder) skipSpace() {
	if d.pos < len(d.data) && d.data[d.pos] > ' ' {
		return
	}
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

func (d *decoder) expect(c byte) error {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return errUnexpectedEnd
	}
	if d.data[d.pos] != c {
		return d.errAt("unexpected character")
	}
	d.pos++
	return nil
}

// endElem consumes the punctuation after an object member or array
// element: ',' means another element follows, close ends the
// container.
func (d *decoder) endElem(close byte) (more bool, err error) {
	d.skipSpace()
	if d.pos >= len(d.data) {
		return false, errUnexpectedEnd
	}
	switch d.data[d.pos] {
	case ',':
		d.pos++
		return true, nil
	case close:
		d.pos++
		return false, nil
	}
	return false, d.errAt("expected ',' or container close")
}

// tryNull consumes a null literal if one is next.
func (d *decoder) tryNull() bool {
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "null" {
		d.pos += 4
		return true
	}
	return false
}

func (d *decoder) parseBool() (bool, error) {
	if len(d.data)-d.pos >= 4 && string(d.data[d.pos:d.pos+4]) == "true" {
		d.pos += 4
		return true, nil
	}
	if len(d.data)-d.pos >= 5 && string(d.data[d.pos:d.pos+5]) == "false" {
		d.pos += 5
		return false, nil
	}
	return false, d.errAt("expected boolean")
}

// parseInt parses a JSON number that must be a whole int64: fractions,
// exponents, leading zeroes, and overflow are rejected, exactly as
// encoding/json rejects them when the destination is an integer field.
func (d *decoder) parseInt() (int64, error) {
	neg := false
	if d.pos < len(d.data) && d.data[d.pos] == '-' {
		neg = true
		d.pos++
	}
	if d.pos >= len(d.data) || d.data[d.pos] < '0' || d.data[d.pos] > '9' {
		return 0, d.errAt("invalid number")
	}
	if d.data[d.pos] == '0' && d.pos+1 < len(d.data) && d.data[d.pos+1] >= '0' && d.data[d.pos+1] <= '9' {
		return 0, d.errAt("invalid number: leading zero")
	}
	var v uint64
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c < '0' || c > '9' {
			break
		}
		if v > (math.MaxUint64-uint64(c-'0'))/10 {
			return 0, d.errAt("integer overflow")
		}
		v = v*10 + uint64(c-'0')
		d.pos++
	}
	if d.pos < len(d.data) {
		if c := d.data[d.pos]; c == '.' || c == 'e' || c == 'E' {
			return 0, d.errAt("cannot decode non-integer number into integer field")
		}
	}
	if neg {
		if v > uint64(math.MaxInt64)+1 {
			return 0, d.errAt("integer overflow")
		}
		return -int64(v), nil
	}
	if v > math.MaxInt64 {
		return 0, d.errAt("integer overflow")
	}
	return int64(v), nil
}

// parseString parses a JSON string and returns its decoded bytes,
// which alias either the input (clean ASCII fast path) or the
// decoder's scratch buffer — both invalidated by the next parse, so
// callers must copy before parsing on.
func (d *decoder) parseString() ([]byte, error) {
	if d.pos >= len(d.data) || d.data[d.pos] != '"' {
		return nil, d.errAt("expected string")
	}
	d.pos++
	start := d.pos
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		if c == '"' {
			s := d.data[start:d.pos]
			d.pos++
			return s, nil
		}
		// Escapes and non-ASCII take the slow path; the latter because
		// invalid UTF-8 must decode to U+FFFD replacements, exactly as
		// encoding/json's unquote does.
		if c == '\\' || c >= utf8.RuneSelf {
			return d.parseStringSlow(start)
		}
		if c < 0x20 {
			return nil, d.errAt("invalid control character in string")
		}
		d.pos++
	}
	return nil, errUnexpectedEnd
}

func (d *decoder) parseStringSlow(start int) ([]byte, error) {
	b := append(d.scratch[:0], d.data[start:d.pos]...)
	for d.pos < len(d.data) {
		c := d.data[d.pos]
		switch {
		case c == '"':
			d.pos++
			d.scratch = b
			return b, nil
		case c == '\\':
			d.pos++
			if d.pos >= len(d.data) {
				return nil, errUnexpectedEnd
			}
			switch e := d.data[d.pos]; e {
			case '"', '\\', '/':
				b = append(b, e)
				d.pos++
			case 'b':
				b = append(b, '\b')
				d.pos++
			case 'f':
				b = append(b, '\f')
				d.pos++
			case 'n':
				b = append(b, '\n')
				d.pos++
			case 'r':
				b = append(b, '\r')
				d.pos++
			case 't':
				b = append(b, '\t')
				d.pos++
			case 'u':
				d.pos++
				r, err := d.parseHex4()
				if err != nil {
					return nil, err
				}
				if utf16.IsSurrogate(r) {
					// A high surrogate pairs with an immediately
					// following \u low surrogate; anything unpaired
					// becomes U+FFFD, as in encoding/json.
					if d.pos+1 < len(d.data) && d.data[d.pos] == '\\' && d.data[d.pos+1] == 'u' {
						save := d.pos
						d.pos += 2
						r2, err := d.parseHex4()
						if err != nil {
							return nil, err
						}
						if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
							b = utf8.AppendRune(b, dec)
							continue
						}
						d.pos = save
					}
					b = utf8.AppendRune(b, utf8.RuneError)
					continue
				}
				b = utf8.AppendRune(b, r)
			default:
				return nil, d.errAt("invalid escape in string")
			}
		case c < 0x20:
			return nil, d.errAt("invalid control character in string")
		case c < utf8.RuneSelf:
			b = append(b, c)
			d.pos++
		default:
			r, size := utf8.DecodeRune(d.data[d.pos:])
			if r == utf8.RuneError && size == 1 {
				b = utf8.AppendRune(b, utf8.RuneError)
				d.pos++
			} else {
				b = append(b, d.data[d.pos:d.pos+size]...)
				d.pos += size
			}
		}
	}
	return nil, errUnexpectedEnd
}

func (d *decoder) parseHex4() (rune, error) {
	if d.pos+4 > len(d.data) {
		return 0, errUnexpectedEnd
	}
	var v rune
	for i := 0; i < 4; i++ {
		c := d.data[d.pos+i]
		switch {
		case c >= '0' && c <= '9':
			v = v<<4 | rune(c-'0')
		case c >= 'a' && c <= 'f':
			v = v<<4 | rune(c-'a'+10)
		case c >= 'A' && c <= 'F':
			v = v<<4 | rune(c-'A'+10)
		default:
			return 0, d.errAt("invalid \\u escape")
		}
	}
	d.pos += 4
	return v, nil
}

// skipValue consumes one JSON value of any shape — how unknown object
// members are discarded.
func (d *decoder) skipValue(depth int) error {
	if depth > maxSkipDepth {
		return errors.New("wire: exceeded max nesting depth")
	}
	d.skipSpace()
	if d.pos >= len(d.data) {
		return errUnexpectedEnd
	}
	switch c := d.data[d.pos]; {
	case c == '"':
		_, err := d.parseString()
		return err
	case c == '{':
		d.pos++
		d.skipSpace()
		if d.pos < len(d.data) && d.data[d.pos] == '}' {
			d.pos++
			return nil
		}
		for {
			d.skipSpace()
			if _, err := d.parseString(); err != nil {
				return err
			}
			if err := d.expect(':'); err != nil {
				return err
			}
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			more, err := d.endElem('}')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	case c == '[':
		d.pos++
		d.skipSpace()
		if d.pos < len(d.data) && d.data[d.pos] == ']' {
			d.pos++
			return nil
		}
		for {
			if err := d.skipValue(depth + 1); err != nil {
				return err
			}
			more, err := d.endElem(']')
			if err != nil {
				return err
			}
			if !more {
				return nil
			}
		}
	case c == 't' || c == 'f':
		_, err := d.parseBool()
		return err
	case c == 'n':
		if d.tryNull() {
			return nil
		}
		return d.errAt("invalid literal")
	case c == '-' || (c >= '0' && c <= '9'):
		return d.skipNumber()
	default:
		return d.errAt("unexpected character")
	}
}

// skipNumber validates and consumes a full JSON number, including the
// float forms parseInt rejects — unknown fields may legitimately hold
// them.
func (d *decoder) skipNumber() error {
	if d.data[d.pos] == '-' {
		d.pos++
	}
	if d.pos >= len(d.data) {
		return errUnexpectedEnd
	}
	switch {
	case d.data[d.pos] == '0':
		d.pos++
	case d.data[d.pos] >= '1' && d.data[d.pos] <= '9':
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
		}
	default:
		return d.errAt("invalid number")
	}
	if d.pos < len(d.data) && d.data[d.pos] == '.' {
		d.pos++
		n := 0
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		if n == 0 {
			return d.errAt("invalid number")
		}
	}
	if d.pos < len(d.data) && (d.data[d.pos] == 'e' || d.data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(d.data) && (d.data[d.pos] == '+' || d.data[d.pos] == '-') {
			d.pos++
		}
		n := 0
		for d.pos < len(d.data) && d.data[d.pos] >= '0' && d.data[d.pos] <= '9' {
			d.pos++
			n++
		}
		if n == 0 {
			return d.errAt("invalid number")
		}
	}
	return nil
}

// lowerKey folds an object key into the decoder's fixed buffer. The
// field structs here have no case-colliding names, so one folded
// comparison reproduces encoding/json's exact-then-case-insensitive
// member matching. Keys longer than the buffer cannot name any known
// field and are returned unfolded (they fall through to skipValue).
func (d *decoder) lowerKey(key []byte) []byte {
	if len(key) > len(d.keybuf) {
		return key
	}
	for i, c := range key {
		if c >= utf8.RuneSelf {
			return d.foldKeySlow(key)
		}
		if c >= 'A' && c <= 'Z' {
			c |= 0x20
		}
		d.keybuf[i] = c
	}
	return d.keybuf[:len(key)]
}

// foldKeySlow canonicalizes a key containing non-ASCII bytes the way
// encoding/json's foldName does: each rune maps to the smallest rune
// in its simple case-folding set, which lands case-variant Unicode
// letters (the Kelvin sign, the long s) on their ASCII canon; ASCII
// is then lowered to match lowerKey. Folding never lengthens a rune's
// UTF-8 form, so the output fits keybuf whenever the key did.
func (d *decoder) foldKeySlow(key []byte) []byte {
	out := d.keybuf[:0]
	for i := 0; i < len(key); {
		if c := key[i]; c < utf8.RuneSelf {
			if c >= 'A' && c <= 'Z' {
				c |= 0x20
			}
			out = append(out, c)
			i++
			continue
		}
		r, n := utf8.DecodeRune(key[i:])
		i += n
		for {
			r2 := unicode.SimpleFold(r)
			if r2 <= r {
				r = r2
				break
			}
			r = r2
		}
		if r >= 'A' && r <= 'Z' {
			r |= 0x20
		}
		out = utf8.AppendRune(out, r)
	}
	return out
}

// setString decodes a string value into *s, a fresh copy of the
// decoded bytes; null leaves *s unchanged (stdlib scalar-null
// semantics).
func (d *decoder) setString(s *string) error {
	if d.tryNull() {
		return nil
	}
	b, err := d.parseString()
	if err != nil {
		return err
	}
	*s = string(b)
	return nil
}

// setInt decodes an integer value into any int-kinded field; null is a
// no-op.
func setInt[T ~int](d *decoder, p *T) error {
	if d.tryNull() {
		return nil
	}
	v, err := d.parseInt()
	if err != nil {
		return err
	}
	*p = T(v)
	return nil
}

// setBool decodes a boolean value; null is a no-op.
func (d *decoder) setBool(p *bool) error {
	if d.tryNull() {
		return nil
	}
	v, err := d.parseBool()
	if err != nil {
		return err
	}
	*p = v
	return nil
}

// decodeIntSlice decodes a JSON array of integers into a FRESH slice:
// null → nil, [] → non-nil empty, null elements → zero values — all
// encoding/json semantics. The backing is never pooled because decoded
// slices escape into the engine's ruling cache. Elements collect in a
// stack array and are copied out once, so a slice costs one allocation
// whatever its length.
func decodeIntSlice[T ~int](d *decoder, p *[]T) error {
	if d.tryNull() {
		*p = nil
		return nil
	}
	if err := d.expect('['); err != nil {
		return err
	}
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		*p = make([]T, 0)
		return nil
	}
	var stack [8]T
	xs := stack[:0]
	for {
		d.skipSpace()
		if d.tryNull() {
			xs = append(xs, 0)
		} else {
			v, err := d.parseInt()
			if err != nil {
				return err
			}
			xs = append(xs, T(v))
		}
		more, err := d.endElem(']')
		if err != nil {
			return err
		}
		if !more {
			*p = append(make([]T, 0, len(xs)), xs...)
			return nil
		}
	}
}

// beginObject consumes '{', and '}' too when the object is empty, and
// reports whether any members follow.
func (d *decoder) beginObject() (more bool, err error) {
	if err := d.expect('{'); err != nil {
		return false, err
	}
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == '}' {
		d.pos++
		return false, nil
	}
	return true, nil
}

// members lists one struct's member names in declaration order: the
// order, and the exact spelling, in which encoding/json writes them.
// exact[i] is member i's key as json.Marshal writes it, quotes and
// colon included; folded[i] is its name as lowerKey folds a key.
type members struct {
	exact  []string
	folded []string
}

func newMembers(names ...string) *members {
	m := &members{}
	for _, n := range names {
		m.exact = append(m.exact, `"`+n+`":`)
		m.folded = append(m.folded, strings.ToLower(n))
	}
	return m
}

var (
	actionMembers = newMembers("Name", "Actor", "Timing", "Data", "Source",
		"Encrypted", "Exposure", "Consent", "Exigency", "PlainView",
		"LawfulVantage", "ProbationSearch", "Tech", "Workplace",
		"ProviderRole", "ProviderPublic", "InterceptsThirdParty",
		"SearchBeyondAuthority")
	consentMembers   = newMembers("Scope", "Revoked", "ExceedsScope", "AllPartiesRequired")
	exigencyMembers  = newMembers("Kind", "Approved")
	techMembers      = newMembers("GeneralPublicUse", "RevealsHomeInterior")
	workplaceMembers = newMembers("GovernmentEmployer", "WorkRelated",
		"JustifiedAtInception", "PermissibleScope")
)

// field parses one `"key":` prefix and returns the index in m of the
// member it names, or -1 for a key naming none. next is the index of
// the member after the one last decoded: when the input spells that
// member exactly as json.Marshal does, it matches with one comparison.
// Any other key (another order, another case, escapes, whitespace
// before ':') is parsed, folded by lowerKey and looked up among the
// folded names.
func (d *decoder) field(m *members, next int) (int, error) {
	d.skipSpace()
	if next < len(m.exact) {
		k := m.exact[next]
		if len(d.data)-d.pos >= len(k) && string(d.data[d.pos:d.pos+len(k)]) == k {
			d.pos += len(k)
			d.skipSpace()
			return next, nil
		}
	}
	key, err := d.parseString()
	if err != nil {
		return 0, err
	}
	if err := d.expect(':'); err != nil {
		return 0, err
	}
	d.skipSpace()
	folded := d.lowerKey(key)
	for i, name := range m.folded {
		if name == string(folded) {
			return i, nil
		}
	}
	return -1, nil
}

// object decodes the members of one JSON object, whose '{' is next,
// dispatching each to member by its index in m (-1 for an unknown key,
// which member must skip).
func object[T any](d *decoder, v *T, m *members, member func(d *decoder, v *T, field int) error) error {
	more, err := d.beginObject()
	for next := 0; more && err == nil; {
		var f int
		if f, err = d.field(m, next); err != nil {
			break
		}
		if err = member(d, v, f); err != nil {
			break
		}
		if f >= 0 {
			next = f + 1
		}
		more, err = d.endElem('}')
	}
	return err
}

// subObject decodes a pointer-to-struct member with encoding/json's
// semantics: null sets *p to nil, and an object merges into *p — set
// already only by a repeated key earlier in the same action — or into
// a fresh T. Every T is a new allocation, never pooled: the engine's
// ruling cache retains the action that points at it.
func subObject[T any](d *decoder, p **T, m *members, member func(d *decoder, v *T, field int) error) error {
	if d.tryNull() {
		*p = nil
		return nil
	}
	v := *p
	if v == nil {
		v = new(T)
	}
	if err := object(d, v, m, member); err != nil {
		return err
	}
	*p = v
	return nil
}

// The member functions below take the field index into their struct's
// members table, whose order is the struct's declaration order.

func consentMember(d *decoder, c *legal.Consent, field int) error {
	switch field {
	case 0:
		return setInt(d, &c.Scope)
	case 1:
		return d.setBool(&c.Revoked)
	case 2:
		return d.setBool(&c.ExceedsScope)
	case 3:
		return d.setBool(&c.AllPartiesRequired)
	}
	return d.skipValue(0)
}

func exigencyMember(d *decoder, x *legal.Exigency, field int) error {
	switch field {
	case 0:
		return setInt(d, &x.Kind)
	case 1:
		return d.setBool(&x.Approved)
	}
	return d.skipValue(0)
}

func techMember(d *decoder, t *legal.SpecializedTech, field int) error {
	switch field {
	case 0:
		return d.setBool(&t.GeneralPublicUse)
	case 1:
		return d.setBool(&t.RevealsHomeInterior)
	}
	return d.skipValue(0)
}

func workplaceMember(d *decoder, w *legal.WorkplaceSearch, field int) error {
	switch field {
	case 0:
		return d.setBool(&w.GovernmentEmployer)
	case 1:
		return d.setBool(&w.WorkRelated)
	case 2:
		return d.setBool(&w.JustifiedAtInception)
	case 3:
		return d.setBool(&w.PermissibleScope)
	}
	return d.skipValue(0)
}

func actionMember(d *decoder, a *legal.Action, field int) error {
	switch field {
	case 0:
		return d.setString(&a.Name)
	case 1:
		return setInt(d, &a.Actor)
	case 2:
		return setInt(d, &a.Timing)
	case 3:
		return setInt(d, &a.Data)
	case 4:
		return setInt(d, &a.Source)
	case 5:
		return d.setBool(&a.Encrypted)
	case 6:
		return decodeIntSlice(d, &a.Exposure)
	case 7:
		return subObject(d, &a.Consent, consentMembers, consentMember)
	case 8:
		return subObject(d, &a.Exigency, exigencyMembers, exigencyMember)
	case 9:
		return d.setBool(&a.PlainView)
	case 10:
		return d.setBool(&a.LawfulVantage)
	case 11:
		return d.setBool(&a.ProbationSearch)
	case 12:
		return subObject(d, &a.Tech, techMembers, techMember)
	case 13:
		return subObject(d, &a.Workplace, workplaceMembers, workplaceMember)
	case 14:
		return setInt(d, &a.ProviderRole)
	case 15:
		return d.setBool(&a.ProviderPublic)
	case 16:
		return d.setBool(&a.InterceptsThirdParty)
	case 17:
		return d.setBool(&a.SearchBeyondAuthority)
	}
	return d.skipValue(0)
}

// decodeAction fills a from one JSON object. Sub-objects and slices
// are freshly allocated on every call — NEVER pooled — because the
// engine's ruling cache retains a shallow copy of the Action, so any
// reuse of pointer/slice backing across requests would corrupt cached
// rulings. The scalar-only hot serving shape allocates only its
// non-empty name.
func (d *decoder) decodeAction(a *legal.Action) error {
	d.skipSpace()
	if d.tryNull() {
		return nil
	}
	return object(d, a, actionMembers, actionMember)
}

// DecodeAction parses data's first JSON value into a, resetting a
// first. Trailing bytes after the value are ignored — the semantics of
// the json.Decoder stream the server's readJSON used before this
// codec. a's pointer and slice fields come out either nil or freshly
// allocated; nothing aliases previous decodes.
func DecodeAction(data []byte, a *legal.Action) error {
	d := getDecoder(data)
	defer putDecoder(d)
	*a = legal.Action{}
	return d.decodeAction(a)
}

// DecodeActions parses a JSON array of actions, appending into dst's
// backing (dst is truncated first) so a pooled slice is reused across
// requests. Element sub-objects are still freshly allocated per call —
// only the []legal.Action backing itself is reused, which is safe
// because the engine copies actions by value. A null top level yields
// the truncated dst, observably identical to stdlib's nil.
func DecodeActions(data []byte, dst []legal.Action) ([]legal.Action, error) {
	d := getDecoder(data)
	defer putDecoder(d)
	d.rems = [remSlots]remSpan{}
	dst = dst[:0]
	d.skipSpace()
	if d.tryNull() {
		return dst, nil
	}
	if err := d.expect('['); err != nil {
		return dst, err
	}
	d.skipSpace()
	if d.pos < len(d.data) && d.data[d.pos] == ']' {
		d.pos++
		return dst, nil
	}
	for {
		dst = append(dst, legal.Action{})
		if err := d.decodeSlot(dst, len(dst)-1); err != nil {
			return dst, err
		}
		more, err := d.endElem(']')
		if err != nil {
			return dst, err
		}
		if !more {
			return dst, nil
		}
	}
}

// leadingName is how json.Marshal opens an action.
var leadingName = []byte(`{"Name":`)

// remSeed keys the remainder table's hash.
var remSeed = maphash.MakeSeed()

// decodeSlot decodes batch element i into the zero dst[i], at the cost
// of its distinct content. An element that opens with leadingName has
// a remainder: the bytes after its Name value up to and including the
// object's '}'. Decoding a remainder is a function of its bytes alone:
// it starts from an action in which only Name is set, every pointer
// still nil, and member matching resumes at index 1. So a remainder
// that decoded without error and never set Name again gives every
// later slot with the same bytes the same action under its own Name.
// The remainder table, keyed on a hash of the bytes through the first
// '}' and hit only on byte equality of the whole span, finds such an
// earlier slot; the hit copies it, with fresh copies of its slice and
// sub-objects, as nothing aliases another decode. Any other element
// shape decodes as DecodeAction decodes it.
func (d *decoder) decodeSlot(dst []legal.Action, i int) error {
	a := &dst[i]
	d.skipSpace()
	if !bytes.HasPrefix(d.data[d.pos:], leadingName) {
		return d.decodeAction(a)
	}
	d.pos += len(leadingName)
	d.skipSpace()
	if err := d.setString(&a.Name); err != nil {
		return err
	}
	// With no '}' left, key is 0: no recorded span, which ends in '}',
	// can match, and the remainder's decode fails.
	start := d.pos
	key := bytes.IndexByte(d.data[start:], '}') + 1
	e := &d.rems[maphash.Bytes(remSeed, d.data[start:start+key])&(remSlots-1)]
	if n := e.end - e.start; e.end != 0 && bytes.HasPrefix(d.data[start:], d.data[e.start:e.end]) {
		name := a.Name
		*a = dst[e.slot]
		a.Name = name
		freshCopies(a)
		d.pos = start + n
		return nil
	}
	setsName, err := d.remainder(a)
	if err == nil && !setsName {
		*e = remSpan{start: start, end: d.pos, slot: i}
	}
	return err
}

// remainder decodes an action's members after its leading Name, up to
// and including the object's '}', and reports whether one of them set
// Name again.
func (d *decoder) remainder(a *legal.Action) (setsName bool, err error) {
	for next := 1; ; {
		more, err := d.endElem('}')
		if err != nil || !more {
			return setsName, err
		}
		f, err := d.field(actionMembers, next)
		if err != nil {
			return setsName, err
		}
		if err := actionMember(d, a, f); err != nil {
			return setsName, err
		}
		if f == 0 {
			setsName = true
		}
		if f >= 0 {
			next = f + 1
		}
	}
}

// freshCopies replaces a's slice and sub-objects with copies of their
// own.
func freshCopies(a *legal.Action) {
	if a.Exposure != nil {
		a.Exposure = append(make([]legal.ExposureFact, 0, len(a.Exposure)), a.Exposure...)
	}
	a.Consent = fresh(a.Consent)
	a.Exigency = fresh(a.Exigency)
	a.Tech = fresh(a.Tech)
	a.Workplace = fresh(a.Workplace)
}

func fresh[T any](p *T) *T {
	if p == nil {
		return nil
	}
	c := *p
	return &c
}
