package feedback

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"strconv"
	"strings"
	"unicode"
	"unicode/utf8"

	"colocmodel/internal/jsonwire"
)

// The record codec. A record is one line: the CRC32 (IEEE) of the payload
// as eight lower-case hex digits, a space, the payload — the Observation
// as json.Marshal renders it — and a newline. appendRecord writes those
// bytes itself. scan reads back a payload only in the form appendRecord
// writes it; every other payload goes to json.Unmarshal, which defines
// what a record means exactly as it did when it also read the common one.

const hexDigits = "0123456789abcdef"

// appendRecord appends o's log line, newline included, to b: the bytes
// json.Marshal and fmt's "%08x " made of it. o must have passed Validate,
// which leaves no seconds value JSON cannot carry.
func appendRecord(b []byte, o *Observation) []byte {
	start := len(b)
	b = append(b, "00000000 "...)
	b = jsonwire.AppendString(append(b, `{"model":`...), o.Model)
	b = strconv.AppendUint(append(b, `,"generation":`...), o.Generation, 10)
	b = jsonwire.AppendString(append(b, `,"target":`...), o.Target)
	if len(o.CoApps) > 0 {
		b = append(b, `,"co_apps":[`...)
		for i, a := range o.CoApps {
			if i > 0 {
				b = append(b, ',')
			}
			b = jsonwire.AppendString(b, a)
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"pstate":`...), int64(o.PState), 10)
	b, _ = jsonwire.AppendFloat(append(b, `,"predicted_seconds":`...), o.PredictedSeconds)
	b, _ = jsonwire.AppendFloat(append(b, `,"measured_seconds":`...), o.MeasuredSeconds)
	if o.UnixNanos != 0 {
		b = strconv.AppendInt(append(b, `,"unix_nanos":`...), o.UnixNanos, 10)
	}
	b = append(b, '}')
	crc := crc32.ChecksumIEEE(b[start+9:])
	for i := start + 7; i >= start; i-- {
		b[i] = hexDigits[crc&0xf]
		crc >>= 4
	}
	return append(b, '\n')
}

// reader decodes the records of one read of the log — All, recovery, a
// chain audit. It owns the buffer each segment of the read is loaded
// into in turn, and scans that buffer in place as a string (see
// parseSegment), so no string a record keeps may point into it: its
// intern table gives each distinct name one strings.Clone for the whole
// read, a record that leaves the scanner goes to json.Unmarshal, which
// copies its own strings, and the arena windows a failed scan handed
// out are taken back. Its scanner's arena backs the CoApps of every
// record it scans.
type reader struct {
	sc    jsonwire.Scanner
	buf   []byte
	names map[string]string
	// recent holds interned names in slots picked by a name's length and
	// first and last bytes: a log names a handful of models and
	// applications, so nearly every name is found here without hashing
	// it for the map.
	recent [64]string
}

func (r *reader) intern(s string) string {
	slot := &r.recent[0]
	if n := len(s); n > 0 {
		h := uint32(n) | uint32(s[0])<<8 | uint32(s[n-1])<<16
		slot = &r.recent[h*0x9e3779b1>>26]
	}
	if *slot == s {
		return *slot
	}
	v, ok := r.names[s]
	if !ok {
		if r.names == nil {
			r.names = make(map[string]string)
		}
		v = strings.Clone(s)
		r.names[v] = v
	}
	*slot = v
	return v
}

// record verifies and decodes one log line (without its newline) into
// o, which must be zero; src holds the same bytes as a string.
func (r *reader) record(o *Observation, line []byte, src string) error {
	if len(line) < 10 || line[8] != ' ' {
		return errors.New("malformed record")
	}
	want, ok := parseChecksum(line[:8])
	if !ok {
		return errors.New("malformed checksum")
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return fmt.Errorf("checksum mismatch: got %08x want %08x", got, want)
	}
	mark := r.sc.Mark()
	if r.scan(o, src[9:]) {
		o.Model, o.Target = r.intern(o.Model), r.intern(o.Target)
		for i, a := range o.CoApps {
			o.CoApps[i] = r.intern(a)
		}
		return nil
	}
	r.sc.Rewind(mark)
	*o = Observation{}
	if err := json.Unmarshal(payload, o); err != nil {
		return fmt.Errorf("bad payload: %w", err)
	}
	return nil
}

// recordKeys are the payload's keys as appendRecord writes them, quoted
// and followed by the colon, in its order; co_apps and unix_nanos may be
// absent.
var recordKeys = [...]string{`"model":`, `"generation":`, `"target":`, `"co_apps":`, `"pstate":`,
	`"predicted_seconds":`, `"measured_seconds":`, `"unix_nanos":`}

// scan decodes a payload whose keys come in recordKeys' order, each
// written exactly as there, with no white space around it, and at most
// once, with plain values (see jsonwire).
// It reports false for anything else, leaving o partly written.
func (r *reader) scan(o *Observation, payload string) bool {
	d := &r.sc
	d.Reset(payload)
	if !d.Eat('{') {
		return false
	}
	if d.Eat('}') {
		return d.AtEnd()
	}
	for k := 0; ; k++ {
		for k < len(recordKeys) && !d.Lit(recordKeys[k]) {
			k++ // a key out of order, repeated, unknown or spelled otherwise runs off the end
		}
		var ok bool
		switch k {
		case 0:
			o.Model, ok = d.Str()
		case 1:
			o.Generation, ok = d.Uint()
		case 2:
			o.Target, ok = d.Str()
		case 3:
			o.CoApps, ok = d.StringArray()
		case 4:
			o.PState, ok = d.Int()
		case 5:
			o.PredictedSeconds, ok = d.Float()
		case 6:
			o.MeasuredSeconds, ok = d.Float()
		case 7:
			var u uint64
			u, ok = d.Uint()
			o.UnixNanos, ok = int64(u), ok && u <= math.MaxInt64
		default:
			return false
		}
		if !ok {
			return false
		}
		if !d.Eat(',') {
			return d.Eat('}') && d.AtEnd()
		}
	}
}

// parseChecksum reads a record's checksum field as fmt.Sscanf(field,
// "%08x") did when it read the log: leading Unicode white space skipped
// (a newline in it is an error), then a non-empty run of hex digits in
// either case, and whatever follows the run ignored.
func parseChecksum(field []byte) (uint32, bool) {
	s := field
	if len(s) > 0 && (s[0] <= ' ' || s[0] >= utf8.RuneSelf) {
		// Only a field starting here can start with white space.
		s = bytes.TrimLeftFunc(field, unicode.IsSpace)
		if bytes.IndexByte(field[:len(field)-len(s)], '\n') >= 0 {
			return 0, false
		}
	}
	var v uint32
	n := 0
	for ; n < len(s); n++ {
		c := s[n]
		switch {
		case c-'0' <= 9:
			c -= '0'
		case (c|0x20)-'a' < 6: // either case
			c = (c | 0x20) - 'a' + 10
		default:
			return v, n > 0
		}
		v = v<<4 | uint32(c)
	}
	return v, n > 0
}
