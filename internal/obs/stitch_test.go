package obs

import (
	"encoding/hex"
	"testing"
	"time"
)

// backendTrace simulates a coloserve hop: adopt the router's outbound
// context, record handler stages, ship them back on the wire.
func backendTrace(t *testing.T, tc TraceContext) string {
	t.Helper()
	tr := NewTracer(Config{Capacity: 4}) // SlowThreshold 0: retain all
	bt := tr.Start("http", "predict", "backend-req")
	bt.AdoptContext(tc)
	for _, stage := range []string{"decode", "cache", "eval", "encode"} {
		sp := bt.StartSpan(stage)
		sp.End()
	}
	wire := bt.WireSpans()
	if wire == "" {
		t.Fatal("backend WireSpans empty")
	}
	bt.Finish(200, false)
	// The backend's own retained trace records the adopted identity.
	snap := tr.Snapshot(Filter{})
	if len(snap) != 1 {
		t.Fatalf("backend retained %d traces", len(snap))
	}
	if snap[0].TraceID != tc.TraceIDString() {
		t.Fatalf("backend trace ID %s != adopted %s", snap[0].TraceID, tc.TraceIDString())
	}
	if want := hex.EncodeToString(tc.SpanID[:]); snap[0].ParentSpanID != want {
		t.Fatalf("backend parent span %s != caller span %s", snap[0].ParentSpanID, want)
	}
	return wire
}

func TestTraceStitchAcrossProcesses(t *testing.T) {
	router := NewTracer(Config{Capacity: 4})
	rt := router.Start("http", "predict", "router-req")

	route := rt.StartSpan("route")
	route.End()
	proxy := rt.StartSpan("proxy")
	proxy.Annotate("backend", "b0")

	out, ok := rt.OutboundContext()
	if !ok {
		t.Fatal("no outbound context on live trace")
	}
	if out.TraceID != [16]byte(mustParse(t, rt.tc.TraceIDString())) {
		t.Fatal("outbound context trace ID differs from trace's own")
	}
	wire := backendTrace(t, out)
	proxy.AttachRemote("b0", wire)
	proxy.End()
	rt.Finish(200, false)

	snap := router.Snapshot(Filter{})
	if len(snap) != 1 {
		t.Fatalf("router retained %d traces", len(snap))
	}
	td := snap[0]
	if td.TraceID == "" || td.ParentSpanID != "" {
		t.Fatalf("router trace identity wrong: %+v", td)
	}
	// Local spans: root, route, proxy. Remote: http + 4 stages.
	if len(td.Spans) != 3+5 {
		t.Fatalf("stitched span count %d, want 8: %+v", len(td.Spans), td.Spans)
	}
	remoteRoot := td.Spans[3]
	if remoteRoot.Origin != "b0" || remoteRoot.Parent != 2 {
		t.Fatalf("remote root not spliced under proxy span: %+v", remoteRoot)
	}
	if !hasAttr(remoteRoot.Attrs, "remote_id", "backend-req") {
		t.Fatalf("remote root missing remote_id attr: %+v", remoteRoot.Attrs)
	}
	stages := map[string]bool{}
	for _, sp := range td.Spans[4:] {
		if sp.Origin != "b0" {
			t.Fatalf("remote span lost origin: %+v", sp)
		}
		if sp.Parent != 3 {
			t.Fatalf("remote child parent %d not remapped to remote root: %+v", sp.Parent, sp)
		}
		if sp.StartNS < td.Spans[2].StartNS {
			t.Fatalf("remote span not shifted to proxy anchor: %+v", sp)
		}
		stages[sp.Name] = true
	}
	for _, want := range []string{"decode", "cache", "eval", "encode"} {
		if !stages[want] {
			t.Fatalf("stitched tree missing backend stage %q", want)
		}
	}
}

func TestStitchRejectsForeignTrace(t *testing.T) {
	router := NewTracer(Config{Capacity: 4})
	rt := router.Start("http", "predict", "r")
	proxy := rt.StartSpan("proxy")
	// Backend answers with a context from a different trace.
	wire := backendTrace(t, NewTraceContext())
	proxy.AttachRemote("b0", wire)
	proxy.End()
	rt.Finish(200, false)
	td := router.Snapshot(Filter{})[0]
	if len(td.Spans) != 2 {
		t.Fatalf("foreign spans were stitched: %d spans", len(td.Spans))
	}
	if !hasAttr(td.Spans[1].Attrs, "stitch_error", "trace id mismatch") {
		t.Fatalf("missing stitch_error annotation: %+v", td.Spans[1].Attrs)
	}
}

func TestStitchBadPayloadAnnotates(t *testing.T) {
	router := NewTracer(Config{Capacity: 4})
	rt := router.Start("http", "predict", "r")
	proxy := rt.StartSpan("proxy")
	proxy.AttachRemote("b0", "corrupt-payload")
	proxy.End()
	rt.Finish(200, false)
	td := router.Snapshot(Filter{})[0]
	if len(td.Spans) != 2 {
		t.Fatalf("corrupt payload grew the tree: %d spans", len(td.Spans))
	}
	found := false
	for _, a := range td.Spans[1].Attrs {
		if a.Key == "stitch_error" {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing stitch_error attr: %+v", td.Spans[1].Attrs)
	}
}

func TestStitchSkippedTracePaysNoDecode(t *testing.T) {
	// A trace under the slow bar is skipped: remotes must be cleared and
	// the pooled trace reusable without leaking prior payloads.
	router := NewTracer(Config{Capacity: 4, SlowThreshold: time.Hour})
	rt := router.Start("http", "predict", "r")
	sp := rt.StartSpan("proxy")
	sp.AttachRemote("b0", "never-decoded-so-not-an-error")
	sp.End()
	rt.Finish(200, false)
	if got := len(router.Snapshot(Filter{})); got != 0 {
		t.Fatalf("trace unexpectedly retained: %d", got)
	}
}

func mustParse(t *testing.T, traceID string) [16]byte {
	t.Helper()
	tc, ok := ParseTraceparent("00-" + traceID + "-00000000000000ff-01")
	if !ok {
		t.Fatalf("bad trace id %q", traceID)
	}
	return tc.TraceID
}

func hasAttr(attrs []Attr, key, value string) bool {
	for _, a := range attrs {
		if a.Key == key && a.Value == value {
			return true
		}
	}
	return false
}
