package wire

import (
	"hash/maphash"
	"strconv"
	"sync/atomic"
	"unicode/utf8"

	"lawgate/internal/legal"
)

const hexDigits = "0123456789abcdef"

// safeSet marks the ASCII bytes encoding/json copies into a JSON
// string verbatim under its default HTML-escaping rules: printable
// ASCII (DEL included) minus the quote, backslash, and the HTML
// significands <, >, &.
var safeSet = func() (set [utf8.RuneSelf]bool) {
	for b := 0x20; b < utf8.RuneSelf; b++ {
		set[b] = true
	}
	for _, b := range []byte{'"', '\\', '<', '>', '&'} {
		set[b] = false
	}
	return
}()

// AppendString appends s as a JSON string, byte-identical to
// encoding/json's default (HTML-escaping) renderer: short escapes for
// \b \f \n \r \t, \u00xx for other control characters and for < > &,
// \u2028 and \u2029 for the line separators, and a \ufffd escape
// per invalid UTF-8 byte.
func AppendString(dst []byte, s string) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		if b := s[i]; b < utf8.RuneSelf {
			if safeSet[b] {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i++
			start = i
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[c&0xF])
			i += size
			start = i
		default:
			i += size
		}
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// AppendInt appends v in decimal.
func AppendInt(dst []byte, v int64) []byte {
	return strconv.AppendInt(dst, v, 10)
}

// AppendUint appends v in decimal.
func AppendUint(dst []byte, v uint64) []byte {
	return strconv.AppendUint(dst, v, 10)
}

// AppendBool appends the JSON boolean literal.
func AppendBool(dst []byte, v bool) []byte {
	if v {
		return append(dst, "true"...)
	}
	return append(dst, "false"...)
}

// AppendRulingViewFromRuling appends the report.RulingView projection
// of r without materializing the view: byte-for-byte what
// json.Marshal(report.FromRuling(*r)) produces (lowercase tagged
// names, exceptions omitted when empty), with zero intermediate
// slices. This is the serving hot path's response body core.
func AppendRulingViewFromRuling(dst []byte, r *legal.Ruling) []byte {
	// The action name is client-supplied: it is escaped on every call
	// and never enters the memo.
	dst = append(dst, `{"action":`...)
	dst = AppendString(dst, r.Action.Name)
	return AppendRulingViewTail(dst, r)
}

// AppendRulingViewTail appends what AppendRulingViewFromRuling renders
// after the action name, from `,"required":` to the closing brace. It
// reads only r's Required, Regime, Exceptions, Rationale and Citations,
// so rulings that share those render the same tail.
func AppendRulingViewTail(dst []byte, r *legal.Ruling) []byte {
	dst = append(dst, `,"required":`...)
	dst = appendName(dst, processJSON, r.Required)
	dst = append(dst, `,"regime":`...)
	dst = appendName(dst, regimeJSON, r.Regime)
	dst = append(dst, `,"needsProcess":`...)
	dst = AppendBool(dst, r.NeedsProcess())
	if len(r.Exceptions) > 0 {
		dst = append(dst, `,"exceptions":[`...)
		for i, e := range r.Exceptions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendName(dst, exceptionJSON, e)
		}
		dst = append(dst, ']')
	}
	// FromRuling copies Rationale with append(nil, ...) and builds
	// Citations by appending titles, so empty inputs project to nil
	// slices — rendered null — while non-empty ones render as arrays.
	dst = append(dst, `,"rationale":`...)
	if len(r.Rationale) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, s := range r.Rationale {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendMemo(dst, s)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"citations":`...)
	if len(r.Citations) == 0 {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i := range r.Citations {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendMemo(dst, r.Citations[i].Title)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}

// processJSON, regimeJSON and exceptionJSON hold the JSON string of
// every defined Process, Regime and ExceptionKind name (and of value
// 0), escaped once at init; appendName falls back to escaping String()
// for values outside them.
var (
	processJSON   = quoteNames(legal.ProcessWiretapOrder)
	regimeJSON    = quoteNames(legal.RegimeSCA)
	exceptionJSON = quoteNames(legal.ExceptionWorkplace)
)

// named is an int-kinded doctrine enum with a String name.
type named interface {
	~int
	String() string
}

// quoteNames escapes the names of values 0..last.
func quoteNames[T named](last T) [][]byte {
	q := make([][]byte, last+1)
	for v := range q {
		q[v] = AppendString(nil, T(v).String())
	}
	return q
}

// appendName appends v's name as a JSON string from its table.
func appendName[T named](dst []byte, table [][]byte, v T) []byte {
	if v >= 0 && int(v) < len(table) {
		return append(dst, table[v]...)
	}
	return AppendString(dst, v.String())
}

// memoSlots sizes the escape memo: a power of two, in sets of memoWays
// adjacent slots. Strings longer than maxMemoLen bypass it, which
// bounds what the memo holds; the longest Table 1 rationale line is
// 195 bytes.
const (
	memoSlots  = 4096
	memoWays   = 4
	maxMemoLen = 512
)

// memoEntry is one memoized string and its JSON form.
type memoEntry struct {
	s string
	q []byte
}

// memo caches the JSON form of the rationale lines and citation titles
// rulings repeat: the engine draws them from a fixed doctrine
// vocabulary, so escaping each once saves a byte-by-byte pass per
// ruling. An entry hits only when its string equals the one asked for,
// so the memo is keyed on content, never on an address. A string hashes
// to one set of memoWays slots; a miss fills an empty slot of the set
// or overwrites one the hash picks, so the memo never grows and a few
// strings sharing a set do not evict each other on every call. Entries
// are immutable once published; concurrent encoders may overwrite each
// other's stores, which only costs a later miss.
var (
	memo     [memoSlots]atomic.Pointer[memoEntry]
	memoSeed = maphash.MakeSeed()
)

// appendMemo appends s as a JSON string through the memo.
func appendMemo(dst []byte, s string) []byte {
	if len(s) > maxMemoLen {
		return AppendString(dst, s)
	}
	h := maphash.String(memoSeed, s)
	set := memo[h&(memoSlots-memoWays):][:memoWays]
	for i := range set {
		if e := set[i].Load(); e != nil && e.s == s {
			return append(dst, e.q...)
		}
	}
	start := len(dst)
	dst = AppendString(dst, s)
	slot := &set[h%memoWays]
	for i := range set {
		if set[i].Load() == nil {
			slot = &set[i]
			break
		}
	}
	slot.Store(&memoEntry{s: s, q: append([]byte(nil), dst[start:]...)})
	return dst
}
