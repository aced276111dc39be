// Package jsonwire holds the byte-level JSON primitives the repository's
// hand-written codecs share: append encoders that write exactly the bytes
// encoding/json writes for a string and a float64, and a Scanner that
// reads values only in their plain form — strings of printable ASCII with
// no escapes, integers and numbers in JSON's own grammar, arrays of plain
// strings — and reports false at the first byte outside it. A caller that
// sees false hands the whole document to encoding/json, which stays the
// definition of what a document means; the Scanner never produces an
// error of its own.
//
// serve's request and reply codecs and feedback's log-record codec are
// built on it; it imports nothing from either, which is its only reason
// to be a package.
package jsonwire

import (
	"math"
	"strconv"
	"strings"
	"unicode/utf8"
)

const hexDigits = "0123456789abcdef"

// AppendString appends s as encoding/json renders a string with HTML
// escaping on (json.Marshal's and json.Encoder's default): `"` and `\`
// backslash-escaped; \b \f \n \r \t in short form; every other control
// byte and <, >, & as \u00XX; each byte of invalid UTF-8 as the escape of
// U+FFFD; U+2028 and U+2029 escaped; everything else as is.
func AppendString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b', '\t', '\n', '\f', '\r':
				b = append(b, '\\', "btn-fr"[c-'\b'])
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(append(b, s[start:i]...), `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(append(b, s[start:i]...), '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}

// AppendFloat appends f in encoding/json's float64 format: ES6 number
// formatting (shortest round-trip digits, exponent form below 1e-6 and
// from 1e21, a two-digit negative exponent's leading zero dropped). It
// reports false for NaN and infinities, which JSON cannot carry.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b, true
}

// maxArenaHint caps the arena's first allocation, which is sized from a
// count over the input that a hostile input can inflate; past it the
// arena grows by append.
const maxArenaHint = 16 * 4096

// Scanner reads plain JSON values off a string. Decoded strings are
// substrings of the input and every array StringArray returns is a
// capacity-capped window of one arena, so a caller's append to one
// cannot overwrite the next.
type Scanner struct {
	s     string
	i     int
	arena []string
}

// NewScanner returns a scanner positioned at the start of s.
func NewScanner(s string) Scanner { return Scanner{s: s} }

// Reset positions the scanner at the start of s, keeping its arena: the
// windows it handed out stay valid and later arrays share the arena.
func (d *Scanner) Reset(s string) { d.s, d.i = s, 0 }

// Reuse positions the scanner at the start of s and empties its arena
// for reuse: every window handed out before is invalid from here on. An
// arena grown past the largest first allocation is dropped rather than
// kept.
func (d *Scanner) Reuse(s string) {
	clear(d.arena)
	d.s, d.i, d.arena = s, 0, d.arena[:0]
	if cap(d.arena) > maxArenaHint {
		d.arena = nil
	}
}

// A Mark is a position Rewind returns the scanner to.
type Mark struct{ i, arena int }

// Mark reports the scanner's position.
func (d *Scanner) Mark() Mark { return Mark{d.i, len(d.arena)} }

// Rewind returns the scanner to a position Mark reported, taking back
// (and clearing) the arena windows handed out since.
func (d *Scanner) Rewind(m Mark) {
	clear(d.arena[m.arena:])
	d.i, d.arena = m.i, d.arena[:m.arena]
}

// Lit consumes lit if the input continues with exactly lit, with no
// whitespace before it.
func (d *Scanner) Lit(lit string) bool {
	if strings.HasPrefix(d.s[d.i:], lit) {
		d.i += len(lit)
		return true
	}
	return false
}

// Count reports the number of non-overlapping instances of sub in the
// whole input: an allocation hint.
func (d *Scanner) Count(sub string) int { return strings.Count(d.s, sub) }

func (d *Scanner) skipSpace() {
	// Every JSON space is below '!', and compact input has none.
	for d.i < len(d.s) && d.s[d.i] <= ' ' && IsSpace(d.s[d.i]) {
		d.i++
	}
}

// IsSpace reports whether c is JSON white space.
func IsSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// Eat consumes c after optional whitespace.
func (d *Scanner) Eat(c byte) bool {
	d.skipSpace()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// AtEnd reports whether only whitespace is left.
func (d *Scanner) AtEnd() bool {
	d.skipSpace()
	return d.i == len(d.s)
}

// plain marks the bytes a string literal may hold and still be its own
// decoded value: printable ASCII and DEL, less the quote and the
// backslash.
var plain = func() (t [256]bool) {
	for c := 0x20; c < 0x80; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// Str scans a string literal that is its own decoded value.
func (d *Scanner) Str() (string, bool) {
	if !d.Eat('"') {
		return "", false
	}
	j := d.i
	for j < len(d.s) && plain[d.s[j]] {
		j++
	}
	if j == len(d.s) || d.s[j] != '"' {
		return "", false
	}
	v := d.s[d.i:j]
	d.i = j + 1
	return v, true
}

// Int scans -?(0|[1-9][0-9]*) of at most 18 digits, so it cannot
// overflow. A fraction or exponent is left unread: the caller then finds
// no delimiter and the number is encoding/json's to reject.
func (d *Scanner) Int() (int, bool) {
	d.skipSpace()
	neg := d.i < len(d.s) && d.s[d.i] == '-'
	if neg {
		d.i++
	}
	u, ok := d.digits()
	v := int64(u)
	if neg {
		v = -v
	}
	return int(v), ok && u < 1e18 && int64(int(v)) == v
}

// Uint scans 0|[1-9][0-9]* up to math.MaxUint64; like Int it leaves a
// fraction or exponent unread.
func (d *Scanner) Uint() (uint64, bool) {
	d.skipSpace()
	return d.digits()
}

func (d *Scanner) digits() (uint64, bool) {
	i := d.i
	var v uint64
	for ; i < len(d.s) && d.s[i]-'0' <= 9; i++ {
		c := uint64(d.s[i] - '0')
		if v > (math.MaxUint64-c)/10 {
			return 0, false
		}
		v = v*10 + c
	}
	if n := i - d.i; n == 0 || (n > 1 && d.s[d.i] == '0') {
		return 0, false
	}
	d.i = i
	return v, true
}

// Float scans a number in JSON's grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and converts it as
// encoding/json does, with strconv.ParseFloat. ParseFloat checks the
// exponent; on its own it would also take .5, +1, 1., 01, Inf and 0x1p3,
// which the checks here on the run of number characters refuse. A number
// out of float64's range is refused, as encoding/json refuses it.
func (d *Scanner) Float() (float64, bool) {
	d.skipSpace()
	s := d.s[d.i:]
	n := 0
	for n < len(s) && (s[n]-'0' <= 9 || s[n] == '.' || s[n]|0x20 == 'e' || s[n] == '+' || s[n] == '-') {
		n++
	}
	m := strings.TrimPrefix(s[:n], "-") // the mantissa onwards
	if m == "" || m[0]-'0' > 9 || (m[0] == '0' && len(m) > 1 && m[1]-'0' <= 9) {
		return 0, false
	}
	if dot := strings.IndexByte(m, '.'); dot >= 0 && (dot+1 == len(m) || m[dot+1]-'0' > 9) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s[:n], 64)
	if err != nil {
		return 0, false
	}
	d.i += n
	return f, true
}

// StringArray scans an array of plain strings into a window of the
// arena; an empty array decodes to an empty non-nil slice, as
// encoding/json's does.
func (d *Scanner) StringArray() ([]string, bool) {
	if !d.Eat('[') {
		return nil, false
	}
	if d.arena == nil {
		d.arena = make([]string, 0, min(d.Count(`"`)/2, maxArenaHint))
	}
	start := len(d.arena)
	if d.Eat(']') {
		return d.arena[start:start:start], true
	}
	for {
		v, ok := d.Str()
		if !ok {
			return nil, false
		}
		d.arena = append(d.arena, v)
		if d.Eat(',') {
			continue
		}
		return d.arena[start:len(d.arena):len(d.arena)], d.Eat(']')
	}
}
