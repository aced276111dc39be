package feedback

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// encodeRecordParent and decodeRecordParent are the record codec as the
// parent of the hand-written one had it — json.Marshal and fmt on the
// way out, fmt.Sscanf and json.Unmarshal on the way back — kept as the
// oracle the hand-written codec is held to.
func encodeRecordParent(o Observation) ([]byte, error) {
	payload, err := json.Marshal(o)
	if err != nil {
		return nil, err
	}
	line := make([]byte, 0, len(payload)+9)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(payload))
	return append(line, payload...), nil
}

func decodeRecordParent(line []byte) (Observation, error) {
	var o Observation
	if len(line) < 10 || line[8] != ' ' {
		return o, fmt.Errorf("malformed record")
	}
	var want uint32
	if _, err := fmt.Sscanf(string(line[:8]), "%08x", &want); err != nil {
		return o, fmt.Errorf("malformed checksum: %w", err)
	}
	payload := line[9:]
	if got := crc32.ChecksumIEEE(payload); got != want {
		return o, fmt.Errorf("checksum mismatch: got %08x want %08x", got, want)
	}
	if err := json.Unmarshal(payload, &o); err != nil {
		return o, fmt.Errorf("bad payload: %w", err)
	}
	return o, nil
}

// sameObservation is reflect.DeepEqual (nil and empty CoApps told apart)
// with the seconds compared bit for bit, so -0 is not 0.
func sameObservation(a, b Observation) bool {
	return reflect.DeepEqual(a, b) &&
		math.Float64bits(a.PredictedSeconds) == math.Float64bits(b.PredictedSeconds) &&
		math.Float64bits(a.MeasuredSeconds) == math.Float64bits(b.MeasuredSeconds)
}

// agreeWithParent decodes one line both ways: the two must agree on
// whether it is a record and, when it is, on every bit of it.
func agreeWithParent(t *testing.T, line []byte) {
	t.Helper()
	want, wantErr := decodeRecordParent(line)
	var got Observation
	gotErr := new(reader).record(&got, line, string(line))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("line %q: codec error %v, parent's %v", line, gotErr, wantErr)
	}
	if gotErr == nil && !sameObservation(got, want) {
		t.Fatalf("line %q: codec read %#v, parent's %#v", line, got, want)
	}
}

// withChecksum prefixes a payload with its own checksum, so arbitrary
// bytes get past the CRC to the payload decoder.
func withChecksum(payload string) []byte {
	return fmt.Appendf(nil, "%08x %s", crc32.ChecksumIEEE([]byte(payload)), payload)
}

// FuzzRecordCodec holds the record codec to the parent's: the encoder
// writes the bytes json.Marshal and "%08x " wrote, byte for byte, for
// every observation json.Marshal can encode (and Validate refuses every
// one it cannot); the decoder agrees with the parent's on every line —
// the encoder's own, the fuzzer's bytes as a line, and the fuzzer's
// bytes as a payload behind a valid checksum — and the checksum field
// reads as fmt.Sscanf("%08x") read it.
func FuzzRecordCodec(f *testing.F) {
	add := func(o Observation, line string) {
		f.Add(o.Model, o.Target, strings.Join(o.CoApps, ","), o.Generation, o.PState,
			math.Float64bits(o.PredictedSeconds), math.Float64bits(o.MeasuredSeconds), o.UnixNanos, []byte(line))
	}
	base := Observation{Model: "primary", Generation: 1, Target: "canneal", CoApps: []string{"cg", "cg"},
		PState: 2, PredictedSeconds: 363.71239, MeasuredSeconds: 370.1, UnixNanos: 1760000000123456789}
	canonical := string(appendRecord(nil, &base))
	payload := canonical[9 : len(canonical)-1]
	add(base, canonical[:len(canonical)-1])
	for _, o := range []Observation{
		{Model: `quote"back\slash`, Target: "<script>&amp;", CoApps: []string{"café", "日本語", "tab\there", "\x00\x1f\x7f"}, PredictedSeconds: 1, MeasuredSeconds: 1},
		{Model: "bad\xffutf8", Target: "a\xc3", CoApps: []string{"\xed\xa0\x80", "sep\u2028\u2029"}, PredictedSeconds: 1, MeasuredSeconds: 1},
		{Target: "cg", PredictedSeconds: math.Copysign(0, -1), MeasuredSeconds: 1e-7, Generation: math.MaxUint64, PState: -3, UnixNanos: -1},
		{Target: "cg", PredictedSeconds: 1e21, MeasuredSeconds: 5e-324, UnixNanos: math.MaxInt64, PState: math.MinInt64},
		{Target: "cg", PredictedSeconds: math.MaxFloat64, MeasuredSeconds: 1.2345678901234567e-6, CoApps: []string{""}},
		{Target: "cg", PredictedSeconds: math.Inf(1), MeasuredSeconds: 1},
		{Target: "cg", PredictedSeconds: 1, MeasuredSeconds: math.NaN()},
	} {
		add(o, "")
	}
	// Payloads the scanner must leave to json.Unmarshal, and lines whose
	// checksum field only fmt's rules decide.
	for _, p := range []string{
		strings.Replace(payload, `"model":"primary","generation":1`, `"generation":1,"model":"primary"`, 1),
		`{"generation":1,"model":"primary","target":"cg","predicted_seconds":1,"measured_seconds":1}`,
		`{"Model":"primary","target":"cg"}`, `{"model":"pri\u006dary","target":"cg"}`, `{"model":"café"}`,
		`{"model":null,"target":"cg"}`, `{"model":"a","model":"b"}`, `{"target":"cg","pstate":1.0}`,
		`{"target":"cg","predicted_seconds":.5}`, `{"target":"cg","predicted_seconds":1.}`, `{"target":"cg","predicted_seconds":01}`,
		`{"target":"cg","predicted_seconds":+1}`, `{"target":"cg","predicted_seconds":1e400}`, `{"target":"cg","generation":-1}`,
		`{"target":"cg","generation":18446744073709551616}`, `{"target":"cg","unix_nanos":9223372036854775808}`,
		`{"target":"cg","bogus":1}`, `{ "model" : "m" , "target" : "cg" }`, `{"target":"cg"} x`, `{}`, `[]`, `null`, ``,
	} {
		add(Observation{}, string(withChecksum(p)))
	}
	for _, field := range []string{strings.ToUpper(canonical[:8]), " " + canonical[1:8], "\t\r" + canonical[2:8], canonical[:4] + "_" + canonical[5:8],
		"\u3000" + canonical[3:8], "\n" + canonical[1:8], canonical[:5] + "xyz", "+" + canonical[1:8], "-" + canonical[1:8], "        "} {
		add(Observation{}, field+canonical[8:len(canonical)-1])
	}
	f.Fuzz(func(t *testing.T, model, target, co string, gen uint64, pstate int, pbits, mbits uint64, nanos int64, line []byte) {
		o := Observation{Model: model, Generation: gen, Target: target, PState: pstate,
			PredictedSeconds: math.Float64frombits(pbits), MeasuredSeconds: math.Float64frombits(mbits), UnixNanos: nanos}
		if co != "" {
			o.CoApps = strings.Split(co, ",")
		}
		if want, err := encodeRecordParent(o); err != nil {
			if o.Validate() == nil {
				t.Fatalf("%#v: json.Marshal refuses it (%v) but Validate lets it through", o, err)
			}
		} else {
			got := appendRecord(nil, &o)
			if !bytes.Equal(got, append(want, '\n')) {
				t.Fatalf("%#v:\nappendRecord %q\nparent       %q", o, got, want)
			}
			agreeWithParent(t, want)
		}
		agreeWithParent(t, line)
		agreeWithParent(t, withChecksum(string(line)))
		if len(line) >= 8 {
			var want uint32
			_, err := fmt.Sscanf(string(line[:8]), "%08x", &want)
			if got, ok := parseChecksum(line[:8]); ok != (err == nil) || (ok && got != want) {
				t.Fatalf("checksum field %q: read %08x/%v, fmt.Sscanf %08x/%v", line[:8], got, ok, want, err)
			}
		}
	})
}

// TestParentWrittenLog opens a log the parent of the hand-written codec
// wrote with json.Marshal — a compacted segment, a sealed plain segment
// and an active segment ending in a torn record (testdata/parentlog,
// written at commit 7ce01b4) — and reads back what the parent's All()
// read from it; re-encoding the records reproduces every segment's
// records byte for byte.
func TestParentWrittenLog(t *testing.T) {
	src := filepath.Join("testdata", "parentlog")
	dir := t.TempDir()
	names := []string{cmpName(1, 3), segName(4), segName(5)} // log order
	var records []byte
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(src, "log", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if bytes.HasPrefix(data, []byte(cmpMagic)) {
			data = data[bytes.IndexByte(data, '\n')+1:]
		}
		records = append(records, data[:bytes.LastIndexByte(data, '\n')+1]...) // the torn tail dropped
	}
	var want []Observation
	raw, err := os.ReadFile(filepath.Join(src, "all.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}

	s, err := Open(Config{Dir: dir, MaxSegmentRecords: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != len(want) {
		t.Fatalf("opened with %d records, want %d", s.Len(), len(want))
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != len(want) {
		t.Fatalf("All() read %d records, want %d", len(all), len(want))
	}
	for i := range want {
		if !sameObservation(all[i], want[i]) {
			t.Fatalf("record %d: read %#v, parent read %#v", i, all[i], want[i])
		}
	}
	var enc []byte
	for i := range all {
		enc = appendRecord(enc, &all[i])
	}
	if !bytes.Equal(enc, records) {
		t.Fatalf("re-encoded records differ from the parent's files:\n got %q\nwant %q", enc, records)
	}
}

// TestStoresRejectNonFiniteSeconds: both stores refuse a seconds value
// JSON cannot carry with the same validation error and store nothing
// (the memory store used to keep +Inf that the disk log then failed to
// encode).
func TestStoresRejectNonFiniteSeconds(t *testing.T) {
	for _, bad := range []Observation{
		{Target: "cg", PredictedSeconds: math.Inf(1), MeasuredSeconds: 1},
		{Target: "cg", PredictedSeconds: 1, MeasuredSeconds: math.Inf(1)},
		{Target: "cg", PredictedSeconds: math.NaN(), MeasuredSeconds: 1},
		{Target: "cg", PredictedSeconds: 1, MeasuredSeconds: math.Inf(-1)},
	} {
		var errs []string
		for _, cfg := range []Config{{}, {Dir: t.TempDir()}} {
			s, err := Open(cfg)
			if err != nil {
				t.Fatal(err)
			}
			_, err = s.AppendBatch([]Observation{obs(0), bad})
			if err == nil {
				t.Fatalf("%T stored %+v", s, bad)
			}
			all, aerr := s.All()
			if s.Len() != 0 || len(all) != 0 || aerr != nil {
				t.Fatalf("%T after refusing %+v: Len %d, All %d records, %v", s, bad, s.Len(), len(all), aerr)
			}
			s.Close()
			errs = append(errs, err.Error())
		}
		if want := "feedback: observation 1: " + bad.Validate().Error(); errs[0] != want || errs[1] != want {
			t.Fatalf("%+v: errors %q, want both %q", bad, errs, want)
		}
	}
}

// TestAllCoAppsAreCappedWindows: the CoApps All returns share one arena,
// so each must be capacity-capped — a caller appending to one record's
// list must not write into the next record's.
func TestAllCoAppsAreCappedWindows(t *testing.T) {
	s, err := Open(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.AppendBatch([]Observation{obs(0), obs(1)}); err != nil {
		t.Fatal(err)
	}
	all, err := s.All()
	if err != nil {
		t.Fatal(err)
	}
	_ = append(all[0].CoApps, "intruder")
	if !reflect.DeepEqual(all[1].CoApps, obs(1).CoApps) {
		t.Fatalf("appending to record 0's co_apps changed record 1's: %q", all[1].CoApps)
	}
}

// benchLog writes a log of the repository benchmark's ingest_rw shape
// into dir and returns it open: 1 024-record segments folded four at a
// time, benchRecords records — one compacted segment and half an active
// one.
func benchLog(b *testing.B, dir string) Store {
	s, err := Open(benchConfig(dir))
	if err != nil {
		b.Fatal(err)
	}
	apps := []string{"canneal", "cg", "ep", "mg", "streamcluster", "ft"}
	batch := make([]Observation, 0, 64)
	for i := 0; i < benchRecords; i++ {
		p := 50 + float64(i%997)*0.7310281
		batch = append(batch, Observation{
			Model: "nnf", Generation: 1, Target: apps[i%len(apps)], CoApps: apps[1 : 1+i%4], PState: i % 3,
			PredictedSeconds: p, MeasuredSeconds: p * (1 + float64(i%13-6)/317), UnixNanos: 1760000000123456789 + int64(i)*1e6,
		})
		if len(batch) == cap(batch) {
			if _, err := s.AppendBatch(batch); err != nil {
				b.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if err := s.(*Log).Compact(); err != nil {
		b.Fatal(err)
	}
	return s
}

const benchRecords = 4608

func benchConfig(dir string) Config {
	return Config{Dir: dir, MaxSegmentRecords: 1024, CompactAfter: 4}
}

// BenchmarkLogAll reads back the log benchLog writes.
func BenchmarkLogAll(b *testing.B) {
	s := benchLog(b, b.TempDir())
	defer s.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, err := s.All()
		if err != nil || len(all) != benchRecords {
			b.Fatalf("read %d records, %v", len(all), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRecords, "ns/record")
}

// BenchmarkLogOpen reopens the log benchLog writes: recovery decodes and
// verifies every segment before Open returns.
func BenchmarkLogOpen(b *testing.B) {
	dir := b.TempDir()
	if err := benchLog(b, dir).Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(benchConfig(dir))
		if err != nil {
			b.Fatal(err)
		}
		n := s.Len()
		if err := s.Close(); err != nil || n != benchRecords {
			b.Fatalf("reopened with %d records, %v", n, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/benchRecords, "ns/record")
}
