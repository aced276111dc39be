package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"

	"colocmodel/internal/jsonwire"
)

// The wire path. Request bodies are read, bounded, into a pooled buffer
// and strictly decoded; reply bodies are encoded into a pooled buffer
// and written in one piece. The two predict endpoints and
// /v1/observations have a hand-written fast path beside encoding/json in
// both directions, all built on internal/jsonwire's primitives.
// encoding/json stays the oracle: the fast decoder only ever accepts
// input in the canonical form it fully recognises and hands everything
// else — including everything malformed — to the stdlib decoder, so
// acceptance, decoded values and every 400 message are the stdlib's; the
// fast encoder renders only values it renders byte-for-byte as
// json.Encoder does and hands the rest back to it.
//
// A batch keeps one form from scan to reply (batchReply): its rows are
// scanned into pooled scratch (or decoded by decodeStrict, outside the
// canonical form), resolved to rows of ids against the request's
// snapshot in one pass, evaluated in one model call, and the reply is
// appended from the snapshot's serving table, the id rows, their
// predictions and the slots' errors. No per-slot reply value is built;
// the exported BatchResponse is built only for encoding/json, when the
// append encoder declines a reply.

// maxBodyBytes bounds a request body: maxBatch rows at up to 512 B each
// (a 12-core scenario with eleven long co-runner names is about 250 B).
const maxBodyBytes = maxBatch * 512

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

// decodeRequest strictly decodes a request body: unknown fields,
// malformed JSON and anything but whitespace after the value are 400s, a
// body over maxBodyBytes is a 413.
func decodeRequest[T any](r *http.Request, req *T) *Error {
	wb, e := readRequest(r)
	if e == nil {
		e = decodeBytes(wb.b, req)
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

// decodeBytes decodes a body through the fast decoder when it is one of
// the request shapes that decoder knows, in canonical form, and through
// decodeStrict otherwise. The fallback decodes into its own value so that
// only it, not every request, pays for a heap escape through
// decodeStrict's interface parameter.
func decodeBytes[T any](body []byte, req *T) *Error {
	var o wireObject
	switch req := any(req).(type) {
	case *PredictRequest:
		if ScanPredictRequest(body, req) {
			return nil
		}
	case *BatchRequest:
		var br batchReply
		var e *Error
		req.Model, req.Scenarios, e = br.decodeBytes(body)
		return e
	case *ObservationsRequest:
		if scanRequest(body, observationFields|fieldObservations, &o) {
			req.ObservationRequest, req.Observations = o.observation(), o.observations
			return nil
		}
	}
	var slow T
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
		if !jsonwire.IsSpace(c) {
			return badRequest(CodeBadRequest, "decoding request body: unexpected data after the JSON value")
		}
	}
	return nil
}

// Field bits of the request objects.
const (
	fieldModel uint8 = 1 << iota
	fieldTarget
	fieldCoApps
	fieldPState
	fieldPredicted
	fieldMeasured
	fieldScenarios
	fieldObservations

	scenarioFields    = fieldTarget | fieldCoApps | fieldPState
	observationFields = fieldModel | scenarioFields | fieldPredicted | fieldMeasured
)

// maxRowHint caps the rows preallocated for a batch from a count over the
// body, which a hostile body can inflate; past it the slice grows by
// append.
const maxRowHint = 4096

// wireObject holds every key a request object can carry; object fills
// the ones its allowed set names.
type wireObject struct {
	seen  uint8 // the fields object read
	model string
	ScenarioRequest
	predicted, measured float64
	scenarios           []ScenarioRequest
	observations        []ObservationRequest
}

func (o wireObject) observation() ObservationRequest {
	return ObservationRequest{Model: o.model, Target: o.Target, CoApps: o.CoApps, PState: o.PState,
		PredictedSeconds: o.predicted, MeasuredSeconds: o.measured}
}

// decode reads and decodes a batch body into the request's model name
// and its rows, through the fast scanner into br's reusable scratch when
// the body is in canonical form and through decodeStrict otherwise:
// either way the rows then go through the same resolver and encoder.
func (br *batchReply) decode(r *http.Request) (string, []ScenarioRequest, *Error) {
	wb, e := readRequest(r)
	if e != nil {
		return "", nil, e
	}
	defer putWireBuf(wb)
	return br.decodeBytes(wb.b)
}

func (br *batchReply) decodeBytes(body []byte) (string, []ScenarioRequest, *Error) {
	br.scan.Reuse(string(body))
	o := wireObject{scenarios: br.reqs[:0]} // the scanned rows land in br.reqs' storage
	if object(&br.scan, fieldModel|fieldScenarios, &o) && br.scan.AtEnd() {
		if o.seen&fieldScenarios == 0 {
			o.scenarios = nil
		} else {
			br.reqs = o.scenarios
		}
		return o.model, o.scenarios, nil
	}
	// The rows a failed scan wrote lie past br.reqs' length.
	clear(br.reqs[:cap(br.reqs)])
	var req BatchRequest
	e := decodeStrict(body, &req)
	return req.Model, req.Scenarios, e
}

// scanRequest is the fast decoder: it takes a request in the form clients
// send — an object whose keys are drawn from allowed, spelled exactly and
// each at most once, with values jsonwire.Scanner reads in their plain
// form — into o, and reports false at the first byte outside that form,
// for the caller to fall back to decodeStrict; it never produces an error
// of its own. Decoded strings are substrings of the body and every CoApps
// slice is a window of the scanner's arena: a request costs one string,
// one arena and (for a batch) one row slice.
func scanRequest(body []byte, allowed uint8, o *wireObject) bool {
	d := jsonwire.NewScanner(string(body))
	return object(&d, allowed, o) && d.AtEnd()
}

// ScanPredictRequest reports whether it decoded body; when it reports
// false req is unchanged and the caller decodes it some other way.
// Exported for the router, which reads the model name its generation
// floor is kept under from the same scan and likewise leaves every body
// the scan declines to encoding/json.
func ScanPredictRequest(body []byte, req *PredictRequest) bool {
	var o wireObject
	if !scanRequest(body, fieldModel|scenarioFields, &o) {
		return false
	}
	req.Model, req.ScenarioRequest = o.model, o.ScenarioRequest
	return true
}

// rows scans an array of objects whose keys are drawn from allowed into
// rows of T, appended to out's storage when out is not nil.
func rows[T ScenarioRequest | ObservationRequest](d *jsonwire.Scanner, allowed uint8, out []T) ([]T, bool) {
	if !d.Eat('[') {
		return nil, false
	}
	if out == nil {
		out = make([]T, 0, min(d.Count("{")-1, maxRowHint))
	}
	if d.Eat(']') {
		return out, true
	}
	// A body's rows share one layout, so once a row is outside
	// scenarioRow's the rest go straight to object.
	layout := true
	for {
		var o wireObject
		out = append(out, *new(T))
		switch row := any(&out[len(out)-1]).(type) {
		case *ScenarioRequest:
			if !layout || !scenarioRow(d, row) {
				layout = false
				if !object(d, allowed, &o) {
					return nil, false
				}
				*row = o.ScenarioRequest
			}
		case *ObservationRequest:
			if !object(d, allowed, &o) {
				return nil, false
			}
			*row = o.observation()
		}
		if d.Eat(',') {
			continue
		}
		return out, d.Eat(']')
	}
}

// scenarioRow scans a scenario in the layout json.Marshal writes one,
// {"target":…,"co_apps":[…],"pstate":…} with its keys in that order and
// no space around them, into sr, and reports false with the scanner
// unmoved for any other layout, which object then reads. It is the batch
// decoder's fast path: a row in that form costs three literal
// comparisons, not three keys to scan and look up.
func scenarioRow(d *jsonwire.Scanner, sr *ScenarioRequest) bool {
	at := d.Mark()
	var ok bool
	if d.Lit(`{"target":`) {
		if sr.Target, ok = d.Str(); ok && d.Lit(`,"co_apps":`) {
			if sr.CoApps, ok = d.StringArray(); ok && d.Lit(`,"pstate":`) {
				if sr.PState, ok = d.Int(); ok && d.Lit("}") {
					return true
				}
			}
		}
	}
	d.Rewind(at)
	return false
}

// object scans one object whose keys are drawn from allowed into o.
func object(d *jsonwire.Scanner, allowed uint8, o *wireObject) bool {
	if !d.Eat('{') {
		return false
	}
	if d.Eat('}') {
		return true
	}
	for {
		key, ok := d.Str()
		if !ok || !d.Eat(':') {
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
		case "predicted_seconds":
			f = fieldPredicted
		case "measured_seconds":
			f = fieldMeasured
		case "scenarios":
			f = fieldScenarios
		case "observations":
			f = fieldObservations
		}
		if allowed&f == 0 || o.seen&f != 0 {
			return false
		}
		o.seen |= f
		switch f {
		case fieldModel:
			o.model, ok = d.Str()
		case fieldTarget:
			o.Target, ok = d.Str()
		case fieldCoApps:
			o.CoApps, ok = d.StringArray()
		case fieldPState:
			o.PState, ok = d.Int()
		case fieldPredicted:
			o.predicted, ok = d.Float()
		case fieldMeasured:
			o.measured, ok = d.Float()
		case fieldScenarios:
			o.scenarios, ok = rows(d, scenarioFields, o.scenarios[:0])
		case fieldObservations:
			o.observations, ok = rows[ObservationRequest](d, observationFields, nil)
		}
		if !ok {
			return false
		}
		if d.Eat(',') {
			continue
		}
		return d.Eat('}')
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

// errNonFinite is the encoding error of a served batch holding a
// number JSON cannot carry.
var errNonFinite = errors.New("serve: reply holds a non-finite number")

// encodeBody appends to wb exactly the bytes json.NewEncoder(w).Encode(body)
// writes: through the append encoders for the predict and observation
// replies, through encoding/json for every other body and for any reply
// the append encoders decline. A served batch, which only the append
// encoder renders, declines only what encoding/json would fail on, and
// fails with errNonFinite.
func encodeBody(wb *wireBuf, body any) error {
	start, ok := len(wb.b), false
	switch v := body.(type) {
	case *PredictResponse:
		if v != nil {
			wb.b, ok = appendPredictResponse(wb.b, v)
		}
	case *batchReply:
		if wb.b, ok = appendBatchReply(wb.b, v); !ok {
			wb.b = wb.b[:start]
			return errNonFinite
		}
	case *ObservationsResponse:
		if v != nil {
			wb.b, ok = appendObservationsResponse(wb.b, v)
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
	if sm := p.served; sm != nil {
		b = append(b, sm.identity...)
	} else {
		b = appendIdentity(b, p.Model, p.Generation, p.Spec)
	}
	return appendPredictFields(b, p)
}

// appendIdentity opens a predict reply with the fields that say which
// model answered; every row of a served batch shares them.
func appendIdentity(b []byte, model string, generation uint64, spec string) []byte {
	b = jsonwire.AppendString(append(b, `{"model":`...), model)
	b = strconv.AppendUint(append(b, `,"generation":`...), generation, 10)
	return jsonwire.AppendString(append(b, `,"spec":`...), spec)
}

// appendPredictFields completes a predict reply after its identity. A
// reply built from a serving snapshot copies its identity, names and
// baseline from the snapshot's table, rendered once per model.
func appendPredictFields(b []byte, p *PredictResponse) ([]byte, bool) {
	sm := p.served
	b = append(b, `,"target":`...)
	if sm != nil {
		b = append(b, sm.apps[p.target].json...)
	} else {
		b = jsonwire.AppendString(b, p.Target)
	}
	b = append(b, `,"co_apps":`...)
	if p.CoApps == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i, a := range p.CoApps {
			if i > 0 {
				b = append(b, ',')
			}
			if sm != nil {
				b = append(b, sm.apps[p.co[i]].json...)
			} else {
				b = jsonwire.AppendString(b, a)
			}
		}
		b = append(b, ']')
	}
	b = strconv.AppendInt(append(b, `,"pstate":`...), int64(p.PState), 10)
	var ok1, ok2 bool
	b, ok1 = jsonwire.AppendFloat(append(b, `,"predicted_seconds":`...), p.PredictedSeconds)
	b, ok2 = jsonwire.AppendFloat(append(b, `,"predicted_slowdown":`...), p.PredictedSlowdown)
	b = append(b, `,"baseline_seconds":`...)
	text := ""
	if sm != nil {
		text = sm.apps[p.target].text[p.PState]
	}
	ok3 := text != ""
	if ok3 {
		b = append(b, text...)
	} else {
		b, ok3 = jsonwire.AppendFloat(b, p.BaselineSeconds)
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

// appendBatchReply renders a served batch from its rows, predictions and
// slot errors, copying the identity, names and baselines from the
// snapshot's serving table. It declines a reply with a non-finite
// number, which encoding/json cannot encode either.
func appendBatchReply(b []byte, br *batchReply) ([]byte, bool) {
	sm := br.rm.servedModel
	b = jsonwire.AppendString(append(b, `{"model":`...), br.rm.name)
	b = append(b, `,"results":[`...)
	for i, k := range br.at {
		if i > 0 {
			b = append(b, ',')
		}
		switch {
		case k < 0:
			b = appendSlotError(b, &br.failed[-1-k])
			continue
		case br.evalErr != nil:
			b = appendSlotError(b, br.evalErr)
			continue
		}
		row, pred := &br.rows[k], br.preds[k]
		app := &sm.apps[row.Target]
		b = append(b, app.row...)
		if row.CoApps == nil {
			b = append(b, "null"...)
		} else {
			b = append(b, '[')
			for j, id := range row.CoApps {
				if j > 0 {
					b = append(b, ',')
				}
				b = append(b, sm.apps[id].json...)
			}
			b = append(b, ']')
		}
		b = append(b, sm.pstateKeys[row.PState]...)
		base, tail := app.secs[row.PState], app.tail[row.PState]
		var ok1, ok2 bool
		b, ok1 = jsonwire.AppendFloat(b, pred)
		b, ok2 = jsonwire.AppendFloat(append(b, `,"predicted_slowdown":`...), pred/base)
		if !ok1 || !ok2 || tail == "" {
			// A non-finite number, or a baseline encoding/json would
			// fail on too.
			return b, false
		}
		b = append(b, tail...)
	}
	b = strconv.AppendInt(append(b, `],"errors":`...), int64(br.errors()), 10)
	return append(b, '}'), true
}

// appendSlotError renders a failed slot, {"error":{...}}.
func appendSlotError(b []byte, e *errorDetail) []byte {
	return append(appendErrorDetail(append(b, `{"error":`...), e), '}')
}

func appendErrorDetail(b []byte, e *errorDetail) []byte {
	b = jsonwire.AppendString(append(b, `{"code":`...), e.Code)
	b = jsonwire.AppendString(append(b, `,"message":`...), e.Message)
	return append(b, '}')
}

func appendObservationsResponse(b []byte, r *ObservationsResponse) ([]byte, bool) {
	b = strconv.AppendInt(append(b, `{"accepted":`...), int64(r.Accepted), 10)
	b = strconv.AppendInt(append(b, `,"rejected":`...), int64(r.Rejected), 10)
	b = append(b, `,"results":`...)
	if r.Results == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Results {
			if i > 0 {
				b = append(b, ',')
			}
			it := &r.Results[i]
			var ok bool
			if b, ok = jsonwire.AppendFloat(append(b, `{"percent_error":`...), it.PercentError); !ok {
				return b, false
			}
			if it.Error != nil {
				b = appendErrorDetail(append(b, `,"error":`...), it.Error)
			}
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	b = strconv.AppendBool(append(b, `,"drift_tripped":`...), r.DriftTripped)
	if r.RetrainTriggered {
		b = append(b, `,"retrain_triggered":true`...)
	}
	return append(b, '}'), true
}
