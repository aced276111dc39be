package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNewRequestIDUnique(t *testing.T) {
	const n = 10000
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		id := NewRequestID()
		if id == "" {
			t.Fatal("empty request ID")
		}
		if seen[id] {
			t.Fatalf("duplicate request ID %q", id)
		}
		seen[id] = true
		if !strings.HasPrefix(id, reqPrefix) {
			t.Fatalf("ID %q missing process prefix %q", id, reqPrefix)
		}
	}
}

func TestNewRequestIDConcurrent(t *testing.T) {
	const workers, per = 8, 1000
	ids := make([][]string, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ids[w] = make([]string, per)
			for i := range ids[w] {
				ids[w][i] = NewRequestID()
			}
		}(w)
	}
	wg.Wait()
	seen := make(map[string]bool, workers*per)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("duplicate request ID %q under concurrency", id)
			}
			seen[id] = true
		}
	}
}

func TestNewLoggerFormats(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", 0)
	if err != nil || lg == nil {
		t.Fatalf("json logger: %v", err)
	}
	lg.Info("hello", "k", "v")
	var rec map[string]any
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("json log line is not JSON: %v (%q)", err, buf.String())
	}
	if rec["msg"] != "hello" || rec["k"] != "v" {
		t.Fatalf("json log line missing fields: %v", rec)
	}

	buf.Reset()
	lg, err = NewLogger(&buf, "text", 0)
	if err != nil || lg == nil {
		t.Fatalf("text logger: %v", err)
	}
	lg.Info("hello", "k", "v")
	if !strings.Contains(buf.String(), "msg=hello") || !strings.Contains(buf.String(), "k=v") {
		t.Fatalf("text log line malformed: %q", buf.String())
	}

	for _, off := range []string{"off", "none", ""} {
		lg, err = NewLogger(&buf, off, 0)
		if err != nil || lg != nil {
			t.Fatalf("format %q: logger=%v err=%v, want nil/nil", off, lg, err)
		}
	}
	if _, err = NewLogger(&buf, "yaml", 0); err == nil {
		t.Fatal("unknown format accepted")
	}
}

func TestNilSafety(t *testing.T) {
	// Every call on a nil tracer / nil trace / zero span must be a no-op.
	var tr *Tracer
	if tr.SlowThreshold() != 0 {
		t.Fatal("nil tracer slow threshold")
	}
	if got := tr.Snapshot(Filter{}); got != nil {
		t.Fatalf("nil tracer snapshot = %v", got)
	}
	if s := tr.Stats(); s != (Stats{}) {
		t.Fatalf("nil tracer stats = %+v", s)
	}
	trace := tr.Start("http", "predict", "id")
	if trace != nil {
		t.Fatal("nil tracer minted a trace")
	}
	sp := trace.StartSpan("decode")
	sp.Annotate("k", "v")
	sp.Fail("boom")
	child := sp.StartChild("inner")
	child.End()
	sp.End()
	trace.Annotate("k", "v")
	trace.Retain()
	if trace.ID() != "" {
		t.Fatal("nil trace ID")
	}
	if trace.ServerTiming() != "" {
		t.Fatal("nil trace server timing")
	}
	trace.Finish(200, false) // must not panic
}

func TestSpanTree(t *testing.T) {
	tracer := NewTracer(Config{Capacity: 4}) // slow=0: retain everything
	trace := tracer.Start("http", "predict", "rid-7")
	if trace.ID() != "rid-7" {
		t.Fatalf("trace ID = %q", trace.ID())
	}

	dec := trace.StartSpan("decode")
	time.Sleep(time.Millisecond)
	dec.End()
	fan := trace.StartSpan("fanout")
	fan.Annotate("slots", "2")
	slot := fan.StartChild("eval")
	time.Sleep(time.Millisecond)
	slot.End()
	fan.End()
	trace.Annotate("model", "m6")
	trace.Finish(200, false)

	got := tracer.Snapshot(Filter{})
	if len(got) != 1 {
		t.Fatalf("retained %d traces, want 1", len(got))
	}
	td := got[0]
	if td.Kind != "http" || td.Name != "predict" || td.Status != 200 || td.Error {
		t.Fatalf("trace metadata wrong: %+v", td)
	}
	if len(td.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (root, decode, fanout, eval)", len(td.Spans))
	}
	root := td.Spans[0]
	if root.Parent != -1 || root.Name != "predict" {
		t.Fatalf("root span wrong: %+v", root)
	}
	if len(root.Attrs) != 1 || root.Attrs[0] != (Attr{Key: "model", Value: "m6"}) {
		t.Fatalf("root attrs wrong: %+v", root.Attrs)
	}
	byName := map[string]SpanData{}
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	if byName["decode"].Parent != 0 || byName["fanout"].Parent != 0 {
		t.Fatal("decode/fanout should parent to the root")
	}
	evalIdx := -1
	for i, sp := range td.Spans {
		if sp.Name == "eval" {
			evalIdx = i
		}
	}
	if td.Spans[evalIdx].Parent == 0 || td.Spans[td.Spans[evalIdx].Parent].Name != "fanout" {
		t.Fatalf("eval should parent to fanout, got parent %d", td.Spans[evalIdx].Parent)
	}
	// Timing invariants: every span is contained in its parent's extent
	// and monotone (End >= Start); the root covers the whole trace.
	for i, sp := range td.Spans {
		if sp.EndNS < sp.StartNS {
			t.Fatalf("span %s ends before it starts: %+v", sp.Name, sp)
		}
		if sp.Parent >= 0 {
			p := td.Spans[sp.Parent]
			if sp.StartNS < p.StartNS || sp.EndNS > p.EndNS {
				t.Fatalf("span %d (%s) [%d,%d] escapes parent %s [%d,%d]",
					i, sp.Name, sp.StartNS, sp.EndNS, p.Name, p.StartNS, p.EndNS)
			}
		}
	}
	if td.DurationMS <= 0 || int64(td.DurationMS*1e6) < root.EndNS-1e3 {
		t.Fatalf("duration %.3fms inconsistent with root span %dns", td.DurationMS, root.EndNS)
	}
}

func TestTraceRetentionRules(t *testing.T) {
	tracer := NewTracer(Config{Capacity: 8, SlowThreshold: time.Hour})

	fast := tracer.Start("http", "predict", "fast")
	fast.Finish(200, false) // under the bar, clean: dropped

	failed := tracer.Start("http", "predict", "failed")
	failed.Finish(500, true) // failed: kept

	forced := tracer.Start("retrain", "drift", "forced")
	forced.Retain()
	forced.Finish(0, false) // forced: kept

	got := tracer.Snapshot(Filter{})
	if len(got) != 2 {
		t.Fatalf("retained %d, want 2 (failed + forced)", len(got))
	}
	// Newest first.
	if got[0].ID != "forced" || got[1].ID != "failed" {
		t.Fatalf("order wrong: %s, %s", got[0].ID, got[1].ID)
	}
	st := tracer.Stats()
	if st.Seen != 3 || st.Retained != 2 || st.Capacity != 8 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SlowThresholdMS != float64(time.Hour)/1e6 {
		t.Fatalf("slow threshold ms = %g", st.SlowThresholdMS)
	}
}

func TestRingEviction(t *testing.T) {
	tracer := NewTracer(Config{Capacity: 4})
	for i := 0; i < 10; i++ {
		tr := tracer.Start("http", "predict", fmt.Sprintf("id-%d", i))
		tr.Finish(200, false)
	}
	got := tracer.Snapshot(Filter{})
	if len(got) != 4 {
		t.Fatalf("ring holds %d, want capacity 4", len(got))
	}
	for i, td := range got {
		want := fmt.Sprintf("id-%d", 9-i)
		if td.ID != want {
			t.Fatalf("slot %d = %s, want %s (newest first)", i, td.ID, want)
		}
	}
	st := tracer.Stats()
	if st.Seen != 10 || st.Retained != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSnapshotFilter(t *testing.T) {
	tracer := NewTracer(Config{Capacity: 16})
	for i := 0; i < 3; i++ {
		tr := tracer.Start("http", "predict", fmt.Sprintf("p%d", i))
		tr.Finish(200, false)
	}
	tr := tracer.Start("http", "schedule", "s0")
	tr.Finish(200, false)
	tr = tracer.Start("retrain", "drift", "r0")
	tr.Finish(0, false)

	if got := tracer.Snapshot(Filter{Kind: "retrain"}); len(got) != 1 || got[0].ID != "r0" {
		t.Fatalf("kind filter: %v", got)
	}
	if got := tracer.Snapshot(Filter{Name: "schedule"}); len(got) != 1 || got[0].ID != "s0" {
		t.Fatalf("name filter: %v", got)
	}
	if got := tracer.Snapshot(Filter{Name: "predict", Limit: 2}); len(got) != 2 {
		t.Fatalf("limit: got %d", len(got))
	}
	// MinDuration well above any test trace filters everything out.
	if got := tracer.Snapshot(Filter{MinDuration: time.Hour}); len(got) != 0 {
		t.Fatalf("min-duration filter kept %d", len(got))
	}
}

func TestSpanCap(t *testing.T) {
	tracer := NewTracer(Config{Capacity: 2})
	trace := tracer.Start("http", "batch", "big")
	for i := 0; i < maxSpans+50; i++ {
		sp := trace.StartSpan("slot")
		sp.End()
	}
	trace.Finish(200, false)
	got := tracer.Snapshot(Filter{})
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	if len(got[0].Spans) != maxSpans {
		t.Fatalf("span count %d, want cap %d", len(got[0].Spans), maxSpans)
	}
	if got[0].SpansDropped != 51 { // root consumed one slot
		t.Fatalf("dropped %d, want 51", got[0].SpansDropped)
	}
}

func TestConcurrentSpans(t *testing.T) {
	// Batch fan-out workers record spans into one trace concurrently;
	// run with -race to make this meaningful.
	tracer := NewTracer(Config{Capacity: 2})
	trace := tracer.Start("http", "batch", "conc")
	fan := trace.StartSpan("fanout")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				sp := fan.StartChild("eval")
				sp.Annotate("w", "x")
				sp.End()
			}
		}()
	}
	wg.Wait()
	fan.End()
	trace.Finish(200, false)
	got := tracer.Snapshot(Filter{})
	if len(got) != 1 {
		t.Fatalf("retained %d", len(got))
	}
	recorded := len(got[0].Spans) + got[0].SpansDropped
	if recorded != 82 { // root + fanout + 80 slots
		t.Fatalf("spans+dropped = %d, want 82", recorded)
	}
}

func TestServerTimingRoundTrip(t *testing.T) {
	tracer := NewTracer(Config{Capacity: 2})
	trace := tracer.Start("http", "predict", "st")
	dec := trace.StartSpan("decode")
	time.Sleep(2 * time.Millisecond)
	dec.End()
	ch := trace.StartSpan("cache")
	ch.End()
	ch2 := trace.StartSpan("cache") // repeated stage: durations aggregate
	ch2.End()
	open := trace.StartSpan("eval") // never ended: excluded
	_ = open

	h := trace.ServerTiming()
	if h == "" {
		t.Fatal("empty Server-Timing")
	}
	if strings.Contains(h, "eval") {
		t.Fatalf("unfinished span leaked into header: %q", h)
	}
	stages := ParseServerTiming(h)
	if len(stages) != 2 {
		t.Fatalf("parsed %d stages from %q, want 2", len(stages), h)
	}
	if stages["decode"] < 0.002 {
		t.Fatalf("decode %gs, want >= 2ms", stages["decode"])
	}
	if _, ok := stages["cache"]; !ok {
		t.Fatalf("cache stage missing from %q", h)
	}
	trace.Finish(200, false)
}

func TestEachServerTimingMalformed(t *testing.T) {
	cases := []struct {
		in   string
		want map[string]float64
	}{
		{"", nil},
		{"decode;dur=1.5", map[string]float64{"decode": 0.0015}},
		{"decode;dur=1.5, cache;dur=0.25", map[string]float64{"decode": 0.0015, "cache": 0.00025}},
		{"a;dur=1, a;dur=2", map[string]float64{"a": 0.003}},
		{"noentry, ;dur=1, bad;dur=zzz, ok;desc=x;dur=4", map[string]float64{"ok": 0.004}},
		{"spaced ; dur = 2", map[string]float64{"spaced": 0.002}},
	}
	for _, tc := range cases {
		got := ParseServerTiming(tc.in)
		if len(got) != len(tc.want) {
			t.Fatalf("%q: got %v, want %v", tc.in, got, tc.want)
		}
		for k, v := range tc.want {
			if math.Abs(got[k]-v) > 1e-12 {
				t.Fatalf("%q: stage %s = %g, want %g", tc.in, k, got[k], v)
			}
		}
	}
}

func TestConcurrentTracerUse(t *testing.T) {
	// Many goroutines finishing traces while others snapshot — the ring
	// must stay bounded and race-free.
	tracer := NewTracer(Config{Capacity: 8})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				tr := tracer.Start("http", "predict", fmt.Sprintf("w%d-%d", w, i))
				sp := tr.StartSpan("decode")
				sp.End()
				tr.Finish(200, i%10 == 0)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			tracer.Snapshot(Filter{Limit: 4})
			tracer.Stats()
		}
	}()
	wg.Wait()
	if got := tracer.Snapshot(Filter{}); len(got) > 8 {
		t.Fatalf("ring exceeded capacity: %d", len(got))
	}
	if st := tracer.Stats(); st.Seen != 200 {
		t.Fatalf("seen %d, want 200", st.Seen)
	}
}
