package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

// The wire path. Request bodies are read, bounded, into a pooled buffer
// and strictly decoded; reply bodies are encoded into a pooled buffer
// and written in one piece. For the two predict endpoints both
// directions have a hand-written fast path beside encoding/json, and
// encoding/json stays the oracle: the fast decoder only ever accepts
// input in the canonical form it fully recognises and hands everything
// else — including everything malformed — to the stdlib decoder, so
// acceptance, decoded values and every 400 message are the stdlib's;
// the fast encoder renders only values it renders byte-for-byte as
// json.Encoder does and hands the rest back to it.

// maxBodyBytes bounds a request body: the default MaxBatch of 4096 rows
// at up to 512 B each (a 12-core scenario with eleven long co-runner
// names is about 250 B).
const maxBodyBytes = 4096 * 512

// maxPooledWireBuf drops oversized buffers instead of pooling them, so
// one huge batch does not pin memory.
const maxPooledWireBuf = 1 << 20

// wireBuf is a pooled byte buffer; it is an io.Writer so encoding/json
// can encode into it too.
type wireBuf struct{ b []byte }

func (wb *wireBuf) Write(p []byte) (int, error) {
	wb.b = append(wb.b, p...)
	return len(p), nil
}

var wireBufPool = sync.Pool{New: func() any { return &wireBuf{b: make([]byte, 0, 512)} }}

func getWireBuf() *wireBuf {
	wb := wireBufPool.Get().(*wireBuf)
	wb.b = wb.b[:0]
	return wb
}

func putWireBuf(wb *wireBuf) {
	if cap(wb.b) <= maxPooledWireBuf {
		wireBufPool.Put(wb)
	}
}

// ---- requests ----

// decodeJSON strictly decodes a request body: unknown fields, malformed
// JSON and anything but whitespace after the value are 400s, a body
// over maxBodyBytes is a 413.
func decodeJSON(r *http.Request, into any) *Error {
	wb, e := readRequest(r)
	if e == nil {
		e = decodeStrict(wb.b, into)
		putWireBuf(wb)
	}
	return e
}

// decodePredict is decodeJSON for the single predict request.
func decodePredict(r *http.Request, req *PredictRequest) *Error {
	wb, e := readRequest(r)
	if e == nil {
		e = decodePredictBytes(wb.b, req)
		putWireBuf(wb)
	}
	return e
}

// decodeBatch is decodeJSON for the batch predict request.
func decodeBatch(r *http.Request, req *BatchRequest) *Error {
	wb, e := readRequest(r)
	if e == nil {
		e = decodeBatchBytes(wb.b, req)
		putWireBuf(wb)
	}
	return e
}

// readRequest reads a request body into a pooled buffer, which the
// caller releases.
func readRequest(r *http.Request) (*wireBuf, *Error) {
	if r.ContentLength > maxBodyBytes {
		return nil, bodyTooLarge()
	}
	wb := getWireBuf()
	var e *Error
	if wb.b, e = readBody(r.Body, wb.b); e != nil {
		putWireBuf(wb)
		return nil, e
	}
	return wb, nil
}

func bodyTooLarge() *Error {
	return &Error{Status: http.StatusRequestEntityTooLarge, Code: CodeBodyTooLarge,
		Message: "request body exceeds " + strconv.Itoa(maxBodyBytes) + " bytes"}
}

// readBody appends the body to buf. It holds at most maxBodyBytes+1
// bytes however much the client sends: the buffer's growth is clamped
// there and the read stops at the first byte past the bound.
func readBody(body io.Reader, buf []byte) ([]byte, *Error) {
	for {
		if len(buf) == cap(buf) {
			n := 2 * cap(buf)
			if n < 512 {
				n = 512
			}
			if n > maxBodyBytes+1 {
				n = maxBodyBytes + 1
			}
			grown := make([]byte, len(buf), n)
			copy(grown, buf)
			buf = grown
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > maxBodyBytes {
			return buf, bodyTooLarge()
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, badRequest(CodeBadRequest, "decoding request body: %v", err)
		}
	}
}

// decodePredictBytes decodes a body in canonical form through the fast
// decoder and any other through decodeStrict. The fallback decodes into
// its own value so that only it, not every request, pays for a heap
// escape through decodeStrict's interface parameter.
func decodePredictBytes(body []byte, req *PredictRequest) *Error {
	if ScanPredictRequest(body, req) {
		return nil
	}
	var slow PredictRequest
	e := decodeStrict(body, &slow)
	*req = slow
	return e
}

func decodeBatchBytes(body []byte, req *BatchRequest) *Error {
	if fastDecodeBatch(body, req) {
		return nil
	}
	var slow BatchRequest
	e := decodeStrict(body, &slow)
	*req = slow
	return e
}

// decodeStrict is the encoding/json path every endpoint's decoding is
// defined by.
func decodeStrict(body []byte, into any) *Error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(into); err != nil {
		return badRequest(CodeBadRequest, "decoding request body: %v", err)
	}
	for _, c := range body[dec.InputOffset():] {
		if !isJSONSpace(c) {
			return badRequest(CodeBadRequest, "decoding request body: unexpected data after the JSON value")
		}
	}
	return nil
}

func isJSONSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\r' || c == '\n' }

// Field bits of the predict request objects.
const (
	fieldModel uint8 = 1 << iota
	fieldTarget
	fieldCoApps
	fieldPState
	fieldScenarios

	scenarioFields = fieldTarget | fieldCoApps | fieldPState
)

// Allocation hints are taken from counts over the body, which a hostile
// body can inflate; past these caps the slices grow by append.
const (
	maxScenarioHint = 4096
	maxCoAppHint    = 16 * 4096
)

// fastDecoder scans a predict request in the form clients send: objects
// with exactly-spelled keys, each at most once; strings of printable
// ASCII with no escapes; pstate a plain integer; no nulls. Every method
// reports false at the first byte outside that form and the caller
// falls back to decodeStrict, so the fast decoder never produces an
// error of its own. Decoded strings are substrings of s and every
// CoApps slice is a window of arena: a request costs one string, one
// arena and (for a batch) one scenario slice.
type fastDecoder struct {
	s     string
	i     int
	arena []string
}

// ScanPredictRequest reports whether it decoded body; when it reports
// false req holds a partial decode the caller must overwrite. Exported
// for the router, which learns its route key from the same scan and
// likewise leaves every body the scan declines to encoding/json.
func ScanPredictRequest(body []byte, req *PredictRequest) bool {
	d := fastDecoder{s: string(body)}
	return d.object(fieldModel|scenarioFields, &req.Model, &req.ScenarioRequest, nil) && d.atEnd()
}

func fastDecodeBatch(body []byte, req *BatchRequest) bool {
	d := fastDecoder{s: string(body)}
	return d.object(fieldModel|fieldScenarios, &req.Model, nil, &req.Scenarios) && d.atEnd()
}

func (d *fastDecoder) skipSpace() {
	for d.i < len(d.s) && isJSONSpace(d.s[d.i]) {
		d.i++
	}
}

// eat consumes c after optional whitespace.
func (d *fastDecoder) eat(c byte) bool {
	d.skipSpace()
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

func (d *fastDecoder) atEnd() bool {
	d.skipSpace()
	return d.i == len(d.s)
}

// str scans a string literal that is its own decoded value.
func (d *fastDecoder) str() (string, bool) {
	if !d.eat('"') {
		return "", false
	}
	for j := d.i; j < len(d.s); j++ {
		switch c := d.s[j]; {
		case c == '"':
			v := d.s[d.i:j]
			d.i = j + 1
			return v, true
		case c < 0x20 || c >= 0x80 || c == '\\':
			return "", false
		}
	}
	return "", false
}

// integer scans -?(0|[1-9][0-9]*) of at most 18 digits, so it cannot
// overflow. A fraction or exponent is left unread: the caller then finds
// no delimiter and the number is the stdlib's to reject.
func (d *fastDecoder) integer() (int, bool) {
	d.skipSpace()
	i := d.i
	neg := i < len(d.s) && d.s[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for ; i < len(d.s) && d.s[i]-'0' <= 9; i++ {
		v = v*10 + int64(d.s[i]-'0')
	}
	if n := i - start; n == 0 || n > 18 || (n > 1 && d.s[start] == '0') {
		return 0, false
	}
	if neg {
		v = -v
	}
	if int64(int(v)) != v {
		return 0, false
	}
	d.i = i
	return int(v), true
}

// stringArray scans an array of plain strings into a window of the arena;
// an empty array decodes to an empty non-nil slice, as the stdlib's
// does.
func (d *fastDecoder) stringArray() ([]string, bool) {
	if !d.eat('[') {
		return nil, false
	}
	if d.arena == nil {
		d.arena = make([]string, 0, min(strings.Count(d.s, `"`)/2, maxCoAppHint))
	}
	start := len(d.arena)
	if d.eat(']') {
		return d.arena[start:start:start], true
	}
	for {
		v, ok := d.str()
		if !ok {
			return nil, false
		}
		d.arena = append(d.arena, v)
		if d.eat(',') {
			continue
		}
		return d.arena[start:len(d.arena):len(d.arena)], d.eat(']')
	}
}

func (d *fastDecoder) scenarios() ([]ScenarioRequest, bool) {
	if !d.eat('[') {
		return nil, false
	}
	scs := make([]ScenarioRequest, 0, min(strings.Count(d.s, "{")-1, maxScenarioHint))
	if d.eat(']') {
		return scs, true
	}
	for {
		var sr ScenarioRequest
		if !d.object(scenarioFields, nil, &sr, nil) {
			return nil, false
		}
		scs = append(scs, sr)
		if d.eat(',') {
			continue
		}
		return scs, d.eat(']')
	}
}

// object scans one object whose keys are drawn from allowed, storing
// each value through the pointer its field belongs to.
func (d *fastDecoder) object(allowed uint8, model *string, sr *ScenarioRequest, scs *[]ScenarioRequest) bool {
	if !d.eat('{') {
		return false
	}
	if d.eat('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := d.str()
		if !ok || !d.eat(':') {
			return false
		}
		var f uint8
		switch key {
		case "model":
			f = fieldModel
		case "target":
			f = fieldTarget
		case "co_apps":
			f = fieldCoApps
		case "pstate":
			f = fieldPState
		case "scenarios":
			f = fieldScenarios
		}
		if allowed&f == 0 || seen&f != 0 {
			return false
		}
		seen |= f
		switch f {
		case fieldModel:
			*model, ok = d.str()
		case fieldTarget:
			sr.Target, ok = d.str()
		case fieldCoApps:
			sr.CoApps, ok = d.stringArray()
		case fieldPState:
			sr.PState, ok = d.integer()
		case fieldScenarios:
			*scs, ok = d.scenarios()
		}
		if !ok {
			return false
		}
		if d.eat(',') {
			continue
		}
		return d.eat('}')
	}
}

// ---- replies ----

// jsonContentType is shared by every reply: assigning it under the
// already-canonical key skips Header.Set's canonicalisation and its
// one-element slice.
var jsonContentType = []string{"application/json"}

// writeJSON encodes body and writes the reply.
func writeJSON(w http.ResponseWriter, status int, body any) {
	wb := getWireBuf()
	err := encodeBody(wb, body)
	writeBody(w, status, wb, err)
}

// writeBody writes an encoded reply and releases its buffer. A body
// that failed to encode (a non-finite prediction) goes out as the bare
// status, as it always has.
func writeBody(w http.ResponseWriter, status int, wb *wireBuf, encErr error) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if encErr == nil {
		_, _ = w.Write(wb.b)
	}
	putWireBuf(wb)
}

// encodeBody appends to wb exactly the bytes json.NewEncoder(w).Encode(body)
// writes: through the append encoders for the predict replies, through
// encoding/json for every other body and for any predict reply the
// append encoders decline.
func encodeBody(wb *wireBuf, body any) error {
	start, ok := len(wb.b), false
	switch v := body.(type) {
	case *PredictResponse:
		if v != nil {
			wb.b, ok = appendPredictResponse(wb.b, v)
		}
	case *BatchResponse:
		if v != nil {
			wb.b, ok = appendBatchResponse(wb.b, v)
		}
	}
	if ok {
		wb.b = append(wb.b, '\n')
		return nil
	}
	wb.b = wb.b[:start]
	return json.NewEncoder(wb).Encode(body)
}

func appendPredictResponse(b []byte, p *PredictResponse) ([]byte, bool) {
	return appendPredictFields(appendPredictIdentity(b, p), p)
}

// appendPredictIdentity opens a predict reply with the fields that say
// which model answered; every row of a served batch shares them.
func appendPredictIdentity(b []byte, p *PredictResponse) []byte {
	b = appendString(append(b, `{"model":`...), p.Model)
	b = strconv.AppendUint(append(b, `,"generation":`...), p.Generation, 10)
	return appendString(append(b, `,"spec":`...), p.Spec)
}

// appendPredictFields completes a reply appendPredictIdentity opened.
func appendPredictFields(b []byte, p *PredictResponse) ([]byte, bool) {
	b = appendString(append(b, `,"target":`...), p.Target)
	b = append(b, `,"co_apps":`...)
	if p.CoApps == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, a := range p.CoApps {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendString(b, a)
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"pstate":`...), int64(p.PState), 10)
	var ok1, ok2 bool
	b, ok1 = appendFloat(append(b, `,"predicted_seconds":`...), p.PredictedSeconds)
	b, ok2 = appendFloat(append(b, `,"predicted_slowdown":`...), p.PredictedSlowdown)
	b = append(b, `,"baseline_seconds":`...)
	ok3 := p.baselineJSON != ""
	if ok3 {
		b = append(b, p.baselineJSON...)
	} else {
		b, ok3 = appendFloat(b, p.BaselineSeconds)
	}
	b = strconv.AppendBool(append(b, `,"cached":`...), p.Cached)
	return append(b, '}'), ok1 && ok2 && ok3
}

// PredictReplyIdentity reads the model and generation off the front of
// a predict reply, where appendPredictResponse (like json.Encoder over
// PredictResponse) renders them: `{"model":"<name>","generation":<n>`
// and then a delimiter. It reports false for any other bytes — an
// escaped or non-ASCII name, a generation that is not a plain integer
// of at most 19 digits — and the caller decodes those with
// encoding/json.
func PredictReplyIdentity(body []byte) (model string, generation uint64, ok bool) {
	const open, mid = `{"model":"`, `","generation":`
	if !bytes.HasPrefix(body, []byte(open)) {
		return "", 0, false
	}
	i := len(open)
	for ; i < len(body) && body[i] != '"'; i++ {
		if c := body[i]; c < 0x20 || c >= 0x80 || c == '\\' {
			return "", 0, false
		}
	}
	name := body[len(open):i]
	if !bytes.HasPrefix(body[i:], []byte(mid)) {
		return "", 0, false
	}
	i += len(mid)
	start := i
	for ; i < len(body) && body[i]-'0' <= 9; i++ {
		generation = generation*10 + uint64(body[i]-'0')
	}
	if n := i - start; n == 0 || n > 19 || (n > 1 && body[start] == '0') || i == len(body) || (body[i] != ',' && body[i] != '}') {
		return "", 0, false
	}
	return string(name), generation, true
}

func appendBatchResponse(b []byte, r *BatchResponse) ([]byte, bool) {
	b = appendString(append(b, `{"model":`...), r.Model)
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		var shared *PredictResponse // the row b[from:to] was rendered for
		var from, to int
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			it := &r.Results[i]
			b = append(b, '{')
			if p := it.Result; p != nil {
				// The row's opening is rendered once and copied for every
				// following row with the same identity.
				if shared != nil && p.Model == shared.Model && p.Generation == shared.Generation && p.Spec == shared.Spec {
					b = append(b, b[from:to]...)
				} else {
					from = len(b)
					b = appendPredictIdentity(append(b, `"result":`...), p)
					to, shared = len(b), p
				}
				var ok bool
				if b, ok = appendPredictFields(b, p); !ok {
					return b, false
				}
			}
			if it.Error != nil {
				if it.Result != nil {
					b = append(b, ',')
				}
				b = appendString(append(b, `"error":{"code":`...), it.Error.Code)
				b = appendString(append(b, `,"message":`...), it.Error.Message)
				b = append(b, '}')
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"errors":`...), int64(r.Errors), 10)
	return append(b, '}'), true
}

// appendString appends s as a JSON string. Printable ASCII outside the
// characters encoding/json escapes is copied as is; any other string
// (quotes in an error message, HTML characters, non-ASCII) is rendered
// by encoding/json itself.
func appendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20 || c >= 0x80, c == '"', c == '\\', c == '<', c == '>', c == '&':
			q, _ := json.Marshal(s) // a string always marshals
			return append(b, q...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendFloat appends f in encoding/json's float64 format: ES6 number
// formatting (shortest round-trip digits, exponent form below 1e-6 and
// from 1e21, a two-digit negative exponent's leading zero dropped). It
// reports false for NaN and infinities, which JSON cannot carry.
func appendFloat(b []byte, f float64) ([]byte, bool) {
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
