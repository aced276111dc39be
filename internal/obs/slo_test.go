package obs

import (
	"os"
	"strings"
	"testing"
	"time"
)

// sloT0 is an arbitrary fixed clock origin aligned to a bucket edge so
// window-boundary assertions are exact.
func sloT0(width time.Duration) time.Time {
	return time.Unix(0, int64(width)*1_000_000)
}

func closeTo(got, want float64) bool {
	d := got - want
	return d < 1e-9 && d > -1e-9
}

func newTestSLO() *SLOTracker {
	return NewSLOTracker(SLOConfig{Objective: 0.99}) // budget 0.01
}

func TestSLOBurnRateMath(t *testing.T) {
	tr := newTestSLO()
	now := sloT0(sloBucketWidth)
	for i := 0; i < 99; i++ {
		tr.ObserveAt(now, time.Millisecond, false)
	}
	tr.ObserveAt(now, time.Millisecond, true)
	st := tr.StatusAt(now)
	// 1% bad over a 1% budget = burn rate 1, in both windows.
	if !closeTo(st.Short.BurnRate, 1) || !closeTo(st.Long.BurnRate, 1) {
		t.Fatalf("burn rates %v / %v, want 1 / 1", st.Short.BurnRate, st.Long.BurnRate)
	}
	if st.Short.Good != 99 || st.Short.Bad != 1 || st.Long.Good != 99 || st.Long.Bad != 1 {
		t.Fatalf("window counts wrong: %+v", st)
	}
	if st.State != "ok" {
		t.Fatalf("state %q, want ok at burn 1 (< warn 2)", st.State)
	}
}

func TestSLOLatencyTargetCountsAsBad(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objective: 0.9, LatencyTarget: 100 * time.Millisecond})
	now := sloT0(sloBucketWidth)
	tr.ObserveAt(now, 50*time.Millisecond, false)  // good
	tr.ObserveAt(now, 100*time.Millisecond, false) // good: boundary inclusive
	tr.ObserveAt(now, 101*time.Millisecond, false) // bad: too slow
	tr.ObserveAt(now, 50*time.Millisecond, true)   // bad: failed
	st := tr.StatusAt(now)
	if st.Short.Good != 2 || st.Short.Bad != 2 {
		t.Fatalf("good/bad = %d/%d, want 2/2", st.Short.Good, st.Short.Bad)
	}
}

func TestSLOWindowBoundaryExpiry(t *testing.T) {
	tr := newTestSLO()
	width := sloBucketWidth
	t0 := sloT0(width)
	tr.ObserveAt(t0, time.Millisecond, true) // one bad in bucket at t0

	// Short window is 30 buckets. At t0+29w the observation is still in
	// the short window; at t0+30w it ages out of short but stays in
	// long.
	st := tr.StatusAt(t0.Add(29 * width))
	if st.Short.Bad != 1 {
		t.Fatalf("bad aged out of short window too early: %+v", st.Short)
	}
	st = tr.StatusAt(t0.Add(30 * width))
	if st.Short.Bad != 0 {
		t.Fatalf("bad survived past the short window: %+v", st.Short)
	}
	if st.Long.Bad != 1 {
		t.Fatalf("bad missing from long window: %+v", st.Long)
	}

	// Long window is 360 buckets: present at +359w, gone at +360w.
	st = tr.StatusAt(t0.Add(359 * width))
	if st.Long.Bad != 1 {
		t.Fatalf("bad aged out of long window too early: %+v", st.Long)
	}
	st = tr.StatusAt(t0.Add(360 * width))
	if st.Long.Bad != 0 || st.Long.Good != 0 {
		t.Fatalf("observation survived past the long window: %+v", st.Long)
	}
}

func TestSLOBucketReuseZeroesStaleCounts(t *testing.T) {
	tr := newTestSLO()
	width := sloBucketWidth
	t0 := sloT0(width)
	tr.ObserveAt(t0, time.Millisecond, true)
	// One full ring rotation later the same slot is reused for a new
	// epoch; the stale bad count must not bleed into the new bucket.
	later := t0.Add(time.Duration(sloBuckets) * width)
	tr.ObserveAt(later, time.Millisecond, false)
	st := tr.StatusAt(later)
	if st.Long.Bad != 0 || st.Long.Good != 1 {
		t.Fatalf("stale counts leaked through slot reuse: %+v", st.Long)
	}
}

func TestSLOStateTransitions(t *testing.T) {
	tr := newTestSLO()
	now := sloT0(sloBucketWidth)
	// 100% bad: burn = 1/0.01 = 100 in both windows -> page.
	for i := 0; i < 10; i++ {
		tr.ObserveAt(now, time.Millisecond, true)
	}
	if st := tr.StatusAt(now); st.State != "page" {
		t.Fatalf("state %q, want page (burn %v)", st.State, st.Short.BurnRate)
	}
	// Dilute with good traffic to land between warn (2) and page (10):
	// 10 bad / 200 total = 5% bad -> burn 5.
	for i := 0; i < 190; i++ {
		tr.ObserveAt(now, time.Millisecond, false)
	}
	if st := tr.StatusAt(now); st.State != "warn" {
		t.Fatalf("state %q, want warn (burn %v)", st.State, st.Short.BurnRate)
	}
	// Dilute further below warn: 10/1000 = 1% -> burn 1.
	for i := 0; i < 800; i++ {
		tr.ObserveAt(now, time.Millisecond, false)
	}
	if st := tr.StatusAt(now); st.State != "ok" {
		t.Fatalf("state %q, want ok (burn %v)", st.State, st.Short.BurnRate)
	}
}

func TestSLOPageNeedsBothWindows(t *testing.T) {
	tr := newTestSLO()
	width := sloBucketWidth
	t0 := sloT0(width)
	// A large good history in the long window, then a short burst of
	// errors: the short window pages but the long window stays low, so
	// the verdict must not be page.
	for i := 0; i < 5000; i++ {
		tr.ObserveAt(t0, time.Millisecond, false)
	}
	burst := t0.Add(sloShortWindow + 2*width)
	for i := 0; i < 20; i++ {
		tr.ObserveAt(burst, time.Millisecond, true)
	}
	st := tr.StatusAt(burst)
	if st.Short.BurnRate < sloPageBurn {
		t.Fatalf("test setup: short burn %v should exceed page", st.Short.BurnRate)
	}
	if st.Long.BurnRate >= sloPageBurn {
		t.Fatalf("test setup: long burn %v should stay below page", st.Long.BurnRate)
	}
	if st.State == "page" {
		t.Fatal("paged on a short-window blip alone")
	}
}

func TestSLOEmptyAndNil(t *testing.T) {
	tr := newTestSLO()
	st := tr.StatusAt(sloT0(sloBucketWidth))
	if st.State != "ok" || st.Short.BurnRate != 0 {
		t.Fatalf("empty tracker not ok: %+v", st)
	}
	var nilTr *SLOTracker
	nilTr.Observe(time.Millisecond, true) // must not panic
	if got := nilTr.StatusAt(time.Now()); got.State != "disabled" {
		t.Fatalf("nil tracker state %q", got.State)
	}
	var sb strings.Builder
	reg := NewRegistry()
	nilTr.Register(reg, "x")
	reg.Write(&sb)
	if sb.Len() != 0 {
		t.Fatal("nil tracker wrote metrics")
	}
}

// TestSLOMetricsRender pins the SLO families byte for byte against a
// scrape captured from the hand-written renderer the registry replaced
// (PR 12's WriteSLOMetrics), driven through the same observations.
func TestSLOMetricsRender(t *testing.T) {
	tr := NewSLOTracker(SLOConfig{Objective: 0.99, LatencyTarget: 100 * time.Millisecond})
	now := time.Now()
	for i := 0; i < 97; i++ {
		tr.ObserveAt(now, 10*time.Millisecond, false)
	}
	tr.ObserveAt(now, 200*time.Millisecond, false)
	tr.ObserveAt(now, 200*time.Millisecond, false)
	tr.ObserveAt(now, time.Millisecond, true)
	reg := NewRegistry()
	tr.Register(reg, "colorouter")
	var sb strings.Builder
	reg.Write(&sb)
	want, err := os.ReadFile("testdata/slo.golden")
	if err != nil {
		t.Fatal(err)
	}
	if sb.String() != string(want) {
		t.Fatalf("SLO scrape differs from testdata/slo.golden:\n%s", sb.String())
	}
}
