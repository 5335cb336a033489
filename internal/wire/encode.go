package wire

import (
	"strconv"
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
	dst = append(dst, `{"action":`...)
	dst = AppendString(dst, r.Action.Name)
	dst = append(dst, `,"required":`...)
	dst = AppendString(dst, r.Required.String())
	dst = append(dst, `,"regime":`...)
	dst = AppendString(dst, r.Regime.String())
	dst = append(dst, `,"needsProcess":`...)
	dst = AppendBool(dst, r.NeedsProcess())
	if len(r.Exceptions) > 0 {
		dst = append(dst, `,"exceptions":[`...)
		for i, e := range r.Exceptions {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = AppendString(dst, e.String())
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
			dst = AppendString(dst, s)
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
			dst = AppendString(dst, r.Citations[i].Title)
		}
		dst = append(dst, ']')
	}
	return append(dst, '}')
}
