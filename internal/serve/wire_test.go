package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
)

// canonicalBodies are request bodies in the form clients send; the fast
// decoder must take them itself (if it fell back on these, the agreement
// fuzzers below would pass while testing nothing).
var canonicalPredictBodies = []string{
	`{"target":"canneal","co_apps":["cg","cg","cg"],"pstate":0}`,
	`{"model":"primary","target":"cg","co_apps":[],"pstate":1}`,
	`{"pstate":-3,"co_apps":["ep"],"target":"cg"}`,
	`{"target":"cg"}`,
	`{}`,
	" {\n\t\"target\" : \"cg\" ,\r\n \"co_apps\" : [ \"ep\" , \"cg\" ] , \"pstate\" : 12 }\n",
	`{"target":"","co_apps":[""],"pstate":-0}`,
	`{"target":"a b~!@#$%^*()_+{}[]:;',./?","pstate":999999999999999999}`,
}

var canonicalBatchBodies = []string{
	`{"scenarios":[{"target":"canneal","co_apps":["cg"],"pstate":0},{"target":"ep","co_apps":[],"pstate":1}]}`,
	`{"model":"primary","scenarios":[{"target":"cg"}]}`,
	`{"scenarios":[],"model":"nn"}`,
	`{"scenarios":[{},{}]}`,
	`{}`,
	" { \"scenarios\" : [ { \"pstate\" : 1 , \"target\" : \"cg\" } , { \"co_apps\" : [ \"ep\" , \"ep\" ] } ] } ",
}

// fallbackPredictBodies are bodies the fast decoder must decline, valid
// and invalid: whatever it does not fully recognise is the stdlib's.
var fallbackPredictBodies = []string{
	``, ` `, `null`, `[]`, `"x"`, `{`, `{"target"`, `{"target":`, `{"target":"cg"`, `{"target":"cg",}`,
	`{"target":"cg"}x`, `{"target":"cg"}{}`, `{"target":"cg"} 1`,
	`{"target":"c\u0067"}`, `{"target":"c\\g"}`, `{"target":"café"}`, "{\"target\":\"c\xffg\"}", "{\"target\":\"c\ng\"}",
	`{"Target":"cg"}`, `{"TARGET":"cg"}`, `{"target":"cg","target":"ep"}`, `{"pstate":1,"pstate":2}`,
	`{"target":null}`, `{"co_apps":null}`, `{"pstate":null}`, `{"model":null}`, `{"co_apps":[null]}`,
	`{"pstate":1.0}`, `{"pstate":1e2}`, `{"pstate":1E2}`, `{"pstate":01}`, `{"pstate":-}`, `{"pstate":"1"}`,
	`{"pstate":1234567890123456789}`, `{"pstate":99999999999999999999}`, `{"pstate":-9223372036854775808}`,
	`{"bogus":1}`, `{"scenarios":[]}`, `{"target":"cg","co_apps":["ep",]}`, `{"co_apps":"ep"}`, `{"co_apps":[1]}`,
	`{"target":7}`, `{"ScenarioRequest":{}}`, "\ufeff{}",
}

var fallbackBatchBodies = []string{
	``, `null`, `{"scenarios":null}`, `{"scenarios":[null]}`, `{"scenarios":[{"target":"cg"},]}`,
	`{"scenarios":[{"target":"cg"}]}x`, `{"scenarios":[{"model":"m"}]}`, `{"target":"cg"}`,
	`{"scenarios":[{"target":"c\u0067"}]}`, `{"Scenarios":[]}`, `{"scenarios":[],"scenarios":[]}`,
	`{"scenarios":[{"pstate":1.5}]}`, `{"scenarios":[[]]}`, `{"scenarios":{}}`, `{"scenarios":[{"scenarios":[]}]}`,
}

var canonicalObservationBodies = []string{
	`{"target":"","measured_seconds":0,"observations":[{"target":"cg","co_apps":["ep","ep"],"pstate":1,"predicted_seconds":363.71239,"measured_seconds":370.1}]}`,
	`{"model":"primary","target":"cg","co_apps":["ep"],"pstate":2,"predicted_seconds":1.5e-7,"measured_seconds":2E+3}`,
	`{"target":"cg","measured_seconds":-0.0}`,
	`{"observations":[],"measured_seconds":1}`,
	`{"observations":[{},{"model":"m","measured_seconds":0.5}]}`,
	" { \"observations\" : [ { \"target\" : \"cg\" , \"measured_seconds\" : 10 } ] } ",
}

var fallbackObservationBodies = []string{
	``, `null`, `{"observations":null}`, `{"observations":[null]}`, `{"observations":[{"observations":[]}]}`,
	`{"measured_seconds":.5}`, `{"measured_seconds":+1}`, `{"measured_seconds":1.}`, `{"measured_seconds":01}`,
	`{"measured_seconds":1e400}`, `{"measured_seconds":Infinity}`, `{"measured_seconds":0x1p3}`, `{"measured_seconds":1_0}`,
	`{"measured_seconds":"1"}`, `{"predicted_seconds":null}`, `{"Measured_Seconds":1}`, `{"measured_seconds":1,"measured_seconds":2}`,
	`{"observations":[{"scenarios":[]}]}`, `{"scenarios":[]}`, `{"observations":[{"target":"c\u0067"}]}`, `{"measured_seconds":1}x`,
}

// The three request shapes' fast decoders, each reporting whether it took
// the body itself.
var fastDecoders = map[string]func([]byte) bool{
	"predict":      func(b []byte) bool { return ScanPredictRequest(b, new(PredictRequest)) },
	"batch":        func(b []byte) bool { return scanRequest(b, fieldModel|fieldScenarios, new(wireObject)) },
	"observations": func(b []byte) bool { return scanRequest(b, observationFields|fieldObservations, new(wireObject)) },
}

func TestFastDecoderTakesCanonicalForm(t *testing.T) {
	for name, bodies := range map[string][2][]string{
		"predict":      {canonicalPredictBodies, fallbackPredictBodies},
		"batch":        {canonicalBatchBodies, fallbackBatchBodies},
		"observations": {canonicalObservationBodies, fallbackObservationBodies},
	} {
		for _, b := range bodies[0] {
			if !fastDecoders[name]([]byte(b)) {
				t.Errorf("fast %s decoder declined %q", name, b)
			}
		}
		for _, b := range bodies[1] {
			if fastDecoders[name]([]byte(b)) {
				t.Errorf("fast %s decoder took %q", name, b)
			}
		}
	}
}

// sameDecode checks one body's two decodings against each other:
// accept/reject, the decoded value (nil and empty slices distinguished)
// and the error in full.
func sameDecode(t *testing.T, body []byte, got, want any, gotErr, wantErr *Error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: wire path error %v, encoding/json error %v", body, gotErr, wantErr)
	}
	if gotErr != nil {
		if *gotErr != *wantErr {
			t.Fatalf("body %q: wire path error %+v, encoding/json error %+v", body, *gotErr, *wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: wire path decoded %#v, encoding/json %#v", body, got, want)
	}
}

// FuzzPredictDecode holds the /v1/predict decode path to its oracle: for
// arbitrary bytes it and the pure encoding/json strict decoder agree.
func FuzzPredictDecode(f *testing.F) {
	for _, set := range [][]string{canonicalPredictBodies, fallbackPredictBodies, canonicalBatchBodies} {
		for _, b := range set {
			f.Add([]byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want PredictRequest
		gotErr := decodeBytes(body, &got)
		wantErr := decodeStrict(body, &want)
		sameDecode(t, body, got, want, gotErr, wantErr)
	})
}

// FuzzObservationsDecode is FuzzPredictDecode for /v1/observations.
func FuzzObservationsDecode(f *testing.F) {
	for _, set := range [][]string{canonicalObservationBodies, fallbackObservationBodies, canonicalPredictBodies} {
		for _, b := range set {
			f.Add([]byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want ObservationsRequest
		gotErr := decodeBytes(body, &got)
		wantErr := decodeStrict(body, &want)
		sameDecode(t, body, got, want, gotErr, wantErr)
	})
}

// FuzzBatchDecode is FuzzPredictDecode for /v1/predict/batch.
func FuzzBatchDecode(f *testing.F) {
	for _, set := range [][]string{canonicalBatchBodies, fallbackBatchBodies, canonicalPredictBodies} {
		for _, b := range set {
			f.Add([]byte(b))
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var got, want BatchRequest
		gotErr := decodeBytes(body, &got)
		wantErr := decodeStrict(body, &want)
		sameDecode(t, body, got, want, gotErr, wantErr)
	})
}

// Random request bodies assembled from JSON fragments reach far more of
// both decoders' state space per second than byte-level mutation, so the
// agreement property also runs over a fixed-seed stream of them under
// plain go test.
func TestDecodeAgreesWithEncodingJSONOnRandomBodies(t *testing.T) {
	rng := rand.New(rand.NewPCG(12, 2015))
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	ws := []string{"", "", "", " ", "\n", "\t \r"}
	keys := []string{`"target"`, `"co_apps"`, `"pstate"`, `"model"`, `"scenarios"`, `"Target"`, `"PSTATE"`, `"bogus"`, `"co_apps"`, `"pstate"`, `"target"`,
		`"predicted_seconds"`, `"measured_seconds"`, `"observations"`, `"Measured_Seconds"`}
	strs := []string{`"cg"`, `"ep"`, `"canneal"`, `""`, `"a\"b"`, `"café"`, `"caf\u00e9"`, `"\ud83d\ude42"`, `"<&>"`, "\"\x7f\"", "\"a\tb\"", `null`, `7`}
	nums := []string{`0`, `1`, `-1`, `-0`, `5`, `123456789012345678`, `1234567890123456789`, `1.0`, `1e3`, `01`, `-`, `null`, `"1"`, `9223372036854775807`, `-9223372036854775808`}
	floats := []string{`0`, `1.5`, `-0.0`, `363.71239`, `1e-7`, `2E+3`, `1e400`, `-1e-400`, `.5`, `+1`, `1.`, `1.e5`, `01`, `-`, `1e`, `0x1p3`, `null`, `"1"`}
	var value func(key string, depth int) string
	array := func(elem func() string) string {
		var b strings.Builder
		b.WriteString("[" + pick(ws))
		for i, n := 0, rng.IntN(4); i < n; i++ {
			if i > 0 {
				b.WriteString(pick(ws) + "," + pick(ws))
			}
			b.WriteString(elem())
		}
		if rng.IntN(40) == 0 {
			b.WriteString(",")
		}
		return b.String() + pick(ws) + "]"
	}
	object := func(depth int) string {
		var b strings.Builder
		b.WriteString("{" + pick(ws))
		for i, n := 0, rng.IntN(5); i < n; i++ {
			if i > 0 {
				b.WriteString(pick(ws) + "," + pick(ws))
			}
			k := pick(keys)
			b.WriteString(k + pick(ws) + ":" + pick(ws) + value(k, depth))
		}
		return b.String() + pick(ws) + "}"
	}
	value = func(key string, depth int) string {
		if rng.IntN(30) == 0 {
			return pick([]string{`null`, `[]`, `{}`, `true`, `"x"`, `3`})
		}
		switch strings.ToLower(key) {
		case `"co_apps"`:
			return array(func() string { return pick(strs) })
		case `"pstate"`:
			return pick(nums)
		case `"predicted_seconds"`, `"measured_seconds"`:
			return pick(floats)
		case `"scenarios"`, `"observations"`:
			if depth > 1 {
				return `[]`
			}
			return array(func() string { return object(depth + 1) })
		}
		return pick(strs)
	}
	const n = 50_000
	fast := map[string]int{}
	for i := 0; i < n; i++ {
		body := pick(ws) + object(0) + pick(ws)
		switch rng.IntN(25) {
		case 0:
			body += pick([]string{"x", "{}", ",", "]", "1"})
		case 1:
			body = body[:rng.IntN(len(body)+1)]
		}
		raw := []byte(body)
		var gp, wp PredictRequest
		ge, we := decodeBytes(raw, &gp), decodeStrict(raw, &wp)
		sameDecode(t, raw, gp, wp, ge, we)
		var gb, wb BatchRequest
		ge, we = decodeBytes(raw, &gb), decodeStrict(raw, &wb)
		sameDecode(t, raw, gb, wb, ge, we)
		var gob, wob ObservationsRequest
		ge, we = decodeBytes(raw, &gob), decodeStrict(raw, &wob)
		sameDecode(t, raw, gob, wob, ge, we)
		for name, took := range fastDecoders {
			if took(raw) {
				fast[name]++
			}
		}
	}
	// The stream must exercise both sides of every split.
	for name := range fastDecoders {
		if fast[name] < n/50 || fast[name] > n-n/50 {
			t.Fatalf("fast %s decoder took %d of %d bodies: the generator no longer covers both paths", name, fast[name], n)
		}
	}
}

// ---- encoder ----

var encStrings = []string{
	"", "cg", "canneal", "primary", "neural-net-F", "linear-A", "a b", "x\x7fy",
	`unknown target "ghost" (known: cg, ep)`, `back\slash`, "<script>", "a&b", "a>b",
	"café", "日本語", "\xff\xfe", "a\xc3", "line\nbreak", "tab\there", "\x00\x01\x1f", "\b\f\r",
	"  ", "emoji 🙂", `"`, `\`, "'",
}

var encFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 363.71239, 1.2345, 294.1, 1e21, 1e21 - 65536, math.Nextafter(1e21, 0),
	math.Nextafter(1e21, math.Inf(1)), 1e-6, math.Nextafter(1e-6, 0), 1e-7, 9.999999e-7, -1e-7, -1e21, 1e22, 1e100,
	1e-9, 1e-10, 1.5e-10, 1e-100, 5e-324, 2.2250738585072014e-308, math.Nextafter(2.2250738585072014e-308, 0),
	math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64, 123456789, 1 << 53, 0.000001234, 100, 1e20,
}

func randFloat(rng *rand.Rand) float64 {
	switch rng.IntN(8) {
	case 0:
		return encFloats[rng.IntN(len(encFloats))]
	case 1:
		return math.Float64frombits(rng.Uint64() & (1<<52 - 1)) // subnormal
	case 2:
		return rng.Float64() * 1000
	case 3:
		return math.Ldexp(rng.Float64(), rng.IntN(200)-100)
	case 4:
		return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[rng.IntN(3)]
	}
	return math.Float64frombits(rng.Uint64())
}

func randString(rng *rand.Rand) string {
	if rng.IntN(6) == 0 {
		b := make([]byte, rng.IntN(6))
		for i := range b {
			b[i] = byte(rng.IntN(256))
		}
		return string(b)
	}
	return encStrings[rng.IntN(len(encStrings))]
}

func randPredictResponse(rng *rand.Rand, finite bool) *PredictResponse {
	p := &PredictResponse{
		Model: randString(rng), Generation: rng.Uint64() >> rng.IntN(64), Spec: randString(rng),
		Target: randString(rng), PState: int(rng.Int64()>>rng.IntN(64)) - rng.IntN(3),
		PredictedSeconds: randFloat(rng), PredictedSlowdown: randFloat(rng), BaselineSeconds: randFloat(rng),
		Cached: rng.IntN(2) == 0,
	}
	if finite {
		for _, f := range []*float64{&p.PredictedSeconds, &p.PredictedSlowdown, &p.BaselineSeconds} {
			if math.IsNaN(*f) || math.IsInf(*f, 0) {
				*f = 1.5
			}
		}
	}
	switch n := rng.IntN(6); n {
	case 0: // nil: "null"
	case 1:
		p.CoApps = []string{} // "[]"
	default:
		p.CoApps = make([]string, n-1)
		for i := range p.CoApps {
			p.CoApps[i] = randString(rng)
		}
	}
	return p
}

func referenceJSON(v any) ([]byte, error) {
	var buf bytes.Buffer
	err := json.NewEncoder(&buf).Encode(v)
	return buf.Bytes(), err
}

// The append encoders render every value they accept byte for byte as
// json.Encoder does — field order, ES6 floats, null against [], HTML
// and UTF-8 escaping, the trailing newline — and decline exactly the
// values encoding/json cannot encode.
func TestEncodeMatchesEncodingJSON(t *testing.T) {
	rng := rand.New(rand.NewPCG(2015, 12))
	check := func(v any, got []byte, ok bool) {
		t.Helper()
		want, err := referenceJSON(v)
		if ok != (err == nil) {
			t.Fatalf("%+v: append encoder accepted=%v, encoding/json error %v", v, ok, err)
		}
		if ok && !bytes.Equal(append(got, '\n'), want) {
			t.Fatalf("append encoder and encoding/json differ:\n got %s\nwant %s", got, want)
		}
		// Whatever the append encoder decides, encodeBody as a whole is
		// json.Encoder.
		wb := getWireBuf()
		defer putWireBuf(wb)
		if encErr := encodeBody(wb, v); (encErr == nil) != (err == nil) || (err == nil && !bytes.Equal(wb.b, want)) {
			t.Fatalf("encodeBody: error %v body %s\nencoding/json: error %v body %s", encErr, wb.b, err, want)
		}
	}
	for i := 0; i < 100_000; i++ {
		p := randPredictResponse(rng, false)
		got, ok := appendPredictResponse(nil, p)
		check(p, got, ok)
	}
	for _, f := range encFloats {
		p := &PredictResponse{PredictedSeconds: f, PredictedSlowdown: -f, BaselineSeconds: f / 3}
		got, ok := appendPredictResponse(nil, p)
		check(p, got, ok)
	}
	for i := 0; i < 30_000; i++ {
		r := &BatchResponse{Model: randString(rng), Errors: int(rng.Int64() >> rng.IntN(64))}
		switch n := rng.IntN(7); n {
		case 0: // nil: "null"
		case 1:
			r.Results = []BatchItem{}
		default:
			r.Results = make([]BatchItem, n-1)
			for j := range r.Results {
				kind := rng.IntN(8)
				if kind != 0 && kind != 1 { // 0: empty slot, 1: error only
					r.Results[j].Result = randPredictResponse(rng, rng.IntN(50) != 0)
				}
				if kind <= 2 { // 2: both
					r.Results[j].Error = &errorDetail{Code: randString(rng), Message: randString(rng)}
				}
			}
		}
		got, ok := appendBatchResponse(nil, r)
		check(r, got, ok)
	}
	// The rows of a served batch share model, generation and spec, and
	// the encoder renders those once and copies them; the random rows
	// above never share them. Here rows share one identity throughout
	// (an error-only slot in between), or alternate with a second that
	// differs in exactly one of the three, which must be rendered afresh
	// each time — for names the json.Marshal fallback renders and for
	// generations at both ends.
	row := func(model string, gen uint64, spec string) BatchItem {
		p := randPredictResponse(rng, true)
		p.Model, p.Generation, p.Spec = model, gen, spec
		return BatchItem{Result: p}
	}
	for _, model := range []string{"primary", "", "<m>", `q"uote`, "café", "\xff"} {
		for _, gen := range []uint64{0, 1, math.MaxUint64} {
			for _, other := range [][3]any{{model + "2", gen, "s"}, {model, gen + 1, "s"}, {model, gen, "<s>"}} {
				shared, alternating := &BatchResponse{Model: model}, &BatchResponse{Model: model}
				for i := 0; i < 6; i++ {
					shared.Results = append(shared.Results, row(model, gen, "s"))
					if i%2 == 1 {
						alternating.Results = append(alternating.Results, row(other[0].(string), other[1].(uint64), other[2].(string)))
					} else {
						alternating.Results = append(alternating.Results, row(model, gen, "s"))
					}
				}
				shared.Results[2] = BatchItem{Error: &errorDetail{Code: CodeUnknownApp, Message: "x"}}
				for _, r := range []*BatchResponse{shared, alternating} {
					got, ok := appendBatchResponse(nil, r)
					check(r, got, ok)
				}
			}
		}
	}
}

// A response built from the serving table carries its baseline already
// rendered; the copy must be the bytes encoding/json formats from the
// number — for every application and P-state of a trained model, and for
// baselines encoding/json prints in exponent form. A hand-built model
// whose baseline row is shorter than its P-state table still gets
// core's error for the P-states the row lacks.
func TestRenderedBaselineMatchesEncodingJSON(t *testing.T) {
	_, m := newTestServer(t, Config{})
	odd := *m.Baselines()
	odd.Baselines = map[string]harness.Baseline{}
	for i, name := range m.Apps() {
		secs := [][]float64{{1e-7, 1e21}, {math.Nextafter(1e-6, 0), 123456789}, {5e-324, math.MaxFloat64}}[i%3]
		if i%3 != 2 { // the third row stays two P-states long
			secs = append(secs, m.Baselines().Baselines[name].SecondsByPState[2:]...)
		}
		odd.Baselines[name] = harness.Baseline{App: name, SecondsByPState: secs}
	}
	oddModel, err := core.Train(m.Spec, &odd, testDataset(t).Records)
	if err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	for name, model := range map[string]*core.Model{"trained": m, "odd": oddModel} {
		if err := reg.Add(name, "", model); err != nil {
			t.Fatal(err)
		}
	}
	s := New(reg, Config{})
	for _, name := range []string{"trained", "odd"} {
		rm, e := s.resolveModel(name)
		if e != nil {
			t.Fatal(e)
		}
		batch := &BatchResponse{Model: name}
		for _, app := range rm.m.Apps() {
			for ps := 0; ps < rm.m.PStates(); ps++ {
				p := &PredictResponse{}
				e := initPredictResponse(p, &rm, features.Scenario{Target: app, CoApps: []string{app}, PState: ps})
				base, err := rm.m.BaselineSeconds(app, ps)
				if err != nil {
					if e == nil || e.Status != http.StatusInternalServerError || e.Message != err.Error() {
						t.Fatalf("%s %s@%d: error %+v, model says %v", name, app, ps, e, err)
					}
					continue
				}
				if e != nil || p.baselineJSON == "" || math.Float64bits(p.BaselineSeconds) != math.Float64bits(base) {
					t.Fatalf("%s %s@%d: baseline %v rendered %q (%v), model says %v", name, app, ps, p.BaselineSeconds, p.baselineJSON, e, base)
				}
				p.PredictedSeconds, p.PredictedSlowdown = base, 1
				batch.Results = append(batch.Results, BatchItem{Result: p})
				for _, v := range []any{p, batch} {
					want, err := referenceJSON(v)
					if err != nil {
						t.Fatal(err)
					}
					wb := getWireBuf()
					if err := encodeBody(wb, v); err != nil || !bytes.Equal(wb.b, want) {
						t.Fatalf("%s %s@%d: encodeBody %q (%v), encoding/json %q", name, app, ps, wb.b, err, want)
					}
					putWireBuf(wb)
				}
			}
		}
	}
}

// The reply prefix reader either reads the identity encoding/json would
// decode from the whole reply or declines: over replies rendered by the
// append encoder and by json.Encoder, for plain, empty, escaped and
// non-ASCII model names and for generations at every edge.
func TestPredictReplyIdentityAgreesWithEncodingJSON(t *testing.T) {
	type identity struct {
		Model      string `json:"model"`
		Generation uint64 `json:"generation"`
	}
	check := func(reply []byte, wantFast bool) {
		t.Helper()
		model, gen, ok := PredictReplyIdentity(reply)
		if ok != wantFast {
			t.Fatalf("reply %q: reader took it = %v, want %v", reply, ok, wantFast)
		}
		var want identity
		if err := json.Unmarshal(reply, &want); ok && (err != nil || model != want.Model || gen != want.Generation) {
			t.Fatalf("reply %q: reader says (%q, %d), encoding/json (%q, %d, %v)", reply, model, gen, want.Model, want.Generation, err)
		}
	}
	plain := func(s string) bool {
		return !strings.ContainsFunc(s, func(r rune) bool { return r < 0x20 || r >= 0x80 || strings.ContainsRune("\"\\<>&", r) })
	}
	models := append([]string{"primary", "", "neural-net-F", "a b", `q"uote`, `back\slash`, "café", "日本語", "\xff", "<m>", "a&b", "tab\there", "x\x7fy"}, encStrings...)
	for _, m := range models {
		for _, g := range []uint64{0, 1, 2, 9, 10, 1<<63 - 1, 9999999999999999999, 10000000000000000000, math.MaxUint64} {
			p := &PredictResponse{Model: m, Generation: g, Spec: "s", Target: "cg", CoApps: []string{"ep"}, PredictedSeconds: 1.5}
			fast := plain(m) && g <= 9999999999999999999
			rendered, ok := appendPredictResponse(nil, p)
			if !ok {
				t.Fatal("append encoder declined a finite reply")
			}
			check(rendered, fast)
			encoded, err := referenceJSON(p)
			if err != nil {
				t.Fatal(err)
			}
			check(encoded, fast)
		}
	}
	for _, reply := range []string{
		``, `{}`, `null`, `{"model":"m"}`, `{"model":"m","generation":`, `{"model":"m","generation":}`, `{"model":"m","generation":1`,
		`{"model":"m","generation":01,"spec":""}`, `{"model":"m","generation":00}`, `{"model":"m","generation":-1}`,
		`{"model":"m","generation":1.5}`, `{"model":"m","generation":1e3}`, `{"model":"m","generation":"1"}`, `{"model":"m","generation":null}`,
		`{"model":"m","generation":18446744073709551616}`, `{"model":"m","generation":123456789012345678901}`,
		`{"model":"m", "generation":1}`, ` {"model":"m","generation":1}`, `{"generation":1,"model":"m"}`, `{"Model":"m","generation":1}`,
		`{"model":null,"generation":1}`, `{"model":7,"generation":1}`, `{"model":"m`, `{"model":"m\u0041","generation":1}`,
		`{"error":{"code":"bad_request","message":"x"}}`, `[{"model":"m","generation":1}]`, `upstream proxy says no`,
	} {
		check([]byte(reply), false)
	}
	for _, reply := range []string{`{"model":"m","generation":1}`, `{"model":"","generation":0,"x":1}`, `{"model":"m","generation":9999999999999999999}` + "\n"} {
		check([]byte(reply), true)
	}
}

// Bodies without an append encoder, and nil predict replies, go through
// encoding/json unchanged.
func TestEncodeBodyFallsBackToEncodingJSON(t *testing.T) {
	_, eb := errBody(badRequest(CodeUnknownApp, "unknown target %q (known: %s)", "<ghost>", "cg, ep"))
	for _, v := range []any{
		eb, (*PredictResponse)(nil), (*BatchResponse)(nil), nil,
		PredictResponse{Model: "by value"}, BatchResponse{Model: "by value"},
		ModelsResponse{Default: "primary", Models: []ModelInfo{{Name: "primary", Apps: []string{"cg"}}}},
		map[string]any{"k": []int{1, 2}},
	} {
		want, err := referenceJSON(v)
		if err != nil {
			t.Fatal(err)
		}
		wb := getWireBuf()
		if err := encodeBody(wb, v); err != nil || !bytes.Equal(wb.b, want) {
			t.Fatalf("%#v: encodeBody %q (%v), encoding/json %q", v, wb.b, err, want)
		}
		putWireBuf(wb)
	}
}

// ---- the handler end to end ----

// Replies served through the wire path are what encoding/json makes of
// the same value: decode the served body with the stdlib, re-encode it
// with the stdlib, and the bytes must be the served bytes.
func TestServedBodiesAreEncodingJSON(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	h := s.Handler()
	w := postRaw(h, "/v1/predict", `{"target":"canneal","co_apps":["cg","ep"],"pstate":1}`)
	if w.Code != http.StatusOK {
		t.Fatalf("predict: status %d: %s", w.Code, w.Body.String())
	}
	p := decodeBody[PredictResponse](t, w)
	if want, _ := referenceJSON(&p); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("predict body %s, encoding/json renders %s", w.Body.Bytes(), want)
	}
	w = postRaw(h, "/v1/predict/batch", `{"scenarios":[{"target":"canneal","co_apps":["cg"],"pstate":0},`+
		`{"target":"<ghost>","pstate":0},{"target":"cg","co_apps":[],"pstate":1},{"target":"ep","pstate":99}]}`)
	if w.Code != http.StatusOK {
		t.Fatalf("batch: status %d: %s", w.Code, w.Body.String())
	}
	b := decodeBody[BatchResponse](t, w)
	if b.Errors != 2 || len(b.Results) != 4 {
		t.Fatalf("batch reply: %+v", b)
	}
	if want, _ := referenceJSON(&b); !bytes.Equal(w.Body.Bytes(), want) {
		t.Fatalf("batch body %s, encoding/json renders %s", w.Body.Bytes(), want)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q", ct)
	}
}

// minimalWriter is the least an http.ResponseWriter can be, reused
// across calls so a measurement sees the handler alone.
type minimalWriter struct {
	hdr    http.Header
	status int
	body   []byte
}

func (w *minimalWriter) Header() http.Header    { return w.hdr }
func (w *minimalWriter) WriteHeader(status int) { w.status = status }
func (w *minimalWriter) Write(p []byte) (int, error) {
	w.body = append(w.body, p...)
	return len(p), nil
}

// predictAllocBudget is the allocation count of one /v1/predict
// through the whole handler stack with default config (tracing and SLO
// tracking on, request ID minted): the body's string, the co-app arena,
// the response, the request ID and its header slice, the Server-Timing
// value and its header slice. Raise it only with a reason;
// encoding/json on this path cost 35.
const predictAllocBudget = 7

// handlerAllocs posts the bodies to path in order, round and round, and
// reports the allocations per request through the whole handler stack
// over runs requests, after two that fill the pools, together with the
// last reply.
func handlerAllocs(t *testing.T, h http.Handler, path string, runs int, bodies ...[]byte) (float64, *minimalWriter) {
	t.Helper()
	if raceEnabled {
		t.Skip("sync.Pool drops a share of Puts under the race detector")
	}
	rd := bytes.NewReader(nil)
	req := httptest.NewRequest(http.MethodPost, path, nil)
	req.Body = io.NopCloser(rd)
	w := &minimalWriter{hdr: make(http.Header, 8)}
	next := 0
	call := func() {
		rd.Reset(bodies[next%len(bodies)])
		next++
		clear(w.hdr)
		w.status, w.body = 0, w.body[:0]
		h.ServeHTTP(w, req)
	}
	call()
	allocs := testing.AllocsPerRun(runs, call) // makes one warm-up call of its own
	if w.hdr["X-Request-Id"] == nil || w.hdr[hdrServerTiming] == nil {
		t.Fatalf("envelope headers missing: %v", w.hdr)
	}
	return allocs, w
}

// TestPredictAllocs walks distinct scenarios, so every request runs
// decode, validation, the model and the encoder on a body it has not
// seen.
func TestPredictAllocs(t *testing.T) {
	s, m := newTestServer(t, Config{})
	var bodies [][]byte
	for _, sr := range distinctScenarios(m, 1, 3) {
		body, err := json.Marshal(sr)
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if len(bodies) < 64 {
		t.Fatalf("%d distinct bodies, want at least 64", len(bodies))
	}
	allocs, w := handlerAllocs(t, s.Handler(), "/v1/predict", len(bodies)-2, bodies...)
	if w.status != http.StatusOK || !bytes.Contains(w.body, []byte(`"cached":false}`)) {
		t.Fatalf("not a clean reply: %d %s", w.status, w.body)
	}
	if allocs > predictAllocBudget {
		t.Fatalf("/v1/predict allocates %v per request, budget %d", allocs, predictAllocBudget)
	}
}

// batchAllocBudget is the allocation count of one 64-row
// /v1/predict/batch under the default config: what a single predict's
// envelope costs plus the scenario slice, the reply, its item and
// response slabs, the valid scenarios and their predictions — a fixed
// number per request, none per row. No scenario is posted twice, as in
// a what-if sweep.
const batchAllocBudget = 24

func TestBatchPredictAllocs(t *testing.T) {
	s := neuralTestServer(t, Config{})
	m, _, err := s.Registry().Get("")
	if err != nil {
		t.Fatal(err)
	}
	var bodies [][]byte
	for scs := distinctScenarios(m, 0, 5); len(scs) >= 64; scs = scs[64:] {
		body, err := json.Marshal(BatchRequest{Scenarios: scs[:64]})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	allocs, w := handlerAllocs(t, s.Handler(), "/v1/predict/batch", len(bodies)-2, bodies...)
	if w.status != http.StatusOK || bytes.Count(w.body, []byte(`"predicted_seconds"`)) != 64 || !bytes.Contains(w.body, []byte(`"errors":0}`)) {
		t.Fatalf("not 64 clean rows: %d %s", w.status, w.body)
	}
	if allocs > batchAllocBudget {
		t.Fatalf("64-row /v1/predict/batch allocates %v per request, budget %d", allocs, batchAllocBudget)
	}
}
