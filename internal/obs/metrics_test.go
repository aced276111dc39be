package obs

import (
	"io"
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// boundSets are the three bucket layouts in use: the serve tier's
// request latencies, the router's ×2 ladder (bounds as Duration.Seconds
// renders them), and the observation log's commit latencies.
var boundSets = map[string][]float64{
	"serve": {1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1, 0.5, 1, 5},
	"cluster": func() []float64 {
		var out []float64
		for d := 50 * time.Microsecond; d <= 2*time.Second; d *= 2 {
			out = append(out, d.Seconds())
		}
		return out
	}(),
	"feedback": {1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 5e-2, 0.25},
}

// TestHistogramBucketBoundaries pins the bucket an observation lands in
// at and around every boundary: Prometheus buckets are cumulative with
// le (less-or-equal) semantics, so a value exactly on a bound belongs
// in that bound's bucket and the next representable value in the next.
func TestHistogramBucketBoundaries(t *testing.T) {
	for name, bounds := range boundSets {
		type tc struct {
			v      float64
			bucket int // index into Counts; len(bounds) is +Inf
		}
		cases := []tc{{0, 0}, {bounds[0] * 0.99, 0}, {3600, len(bounds)}}
		for i, ub := range bounds {
			cases = append(cases, tc{ub, i}, tc{math.Nextafter(ub, math.Inf(1)), i + 1})
		}
		for _, c := range cases {
			h := NewHistogram(bounds)
			h.Observe(c.v)
			s := h.Snapshot()
			for i, got := range s.Counts {
				want := uint64(0)
				if i == c.bucket {
					want = 1
				}
				if got != want {
					t.Fatalf("%s: Observe(%g): bucket %d = %d, want bucket %d hit", name, c.v, i, got, c.bucket)
				}
			}
			if s.Count != 1 || len(s.Counts) != len(bounds)+1 {
				t.Fatalf("%s: Observe(%g): count = %d over %d buckets", name, c.v, s.Count, len(s.Counts))
			}
		}
	}
}

// TestHistogramQuantile pins the hedge-delay estimator: the upper bound
// of the covering bucket, 0 when empty, twice the last bound past it.
func TestHistogramQuantile(t *testing.T) {
	bounds := boundSets["cluster"]
	h := NewHistogram(bounds)
	if got := h.Quantile(0.95); got != 0 {
		t.Fatalf("empty quantile = %g, want 0", got)
	}
	for i := 0; i < 95; i++ {
		h.Observe(60e-6) // second bucket
	}
	for i := 0; i < 5; i++ {
		h.Observe(1e-3)
	}
	if got := h.Quantile(0.95); got != bounds[1] {
		t.Fatalf("p95 = %g, want %g", got, bounds[1])
	}
	if got := h.Quantile(0.96); got != 1.6e-3 {
		t.Fatalf("p96 = %g, want 0.0016", got)
	}
	h.Observe(10)
	if got, want := h.Quantile(1), bounds[len(bounds)-1]*2; got != want {
		t.Fatalf("p100 in +Inf = %g, want %g", got, want)
	}
}

// scrapeSum reads an endpoint's latency sum through the exposition
// path, the same way a Prometheus scrape would.
func scrapeSum(t *testing.T, reg *Registry, endpoint string) float64 {
	t.Helper()
	var sb strings.Builder
	reg.Write(&sb)
	prefix := `x_request_duration_seconds_sum{endpoint="` + endpoint + `"}`
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, prefix) {
			f, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			if err != nil {
				t.Fatalf("unparseable sum line %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("sum line for %s not found", endpoint)
	return 0
}

// TestHistogramConcurrentObserve hammers Observe and scrapes
// concurrently (run with -race); afterwards the totals must be exact —
// the CAS loop on the sum must not lose updates.
func TestHistogramConcurrentObserve(t *testing.T) {
	for name, bounds := range boundSets {
		reg := NewRegistry()
		ep := reg.Endpoints("x", "Latency.", bounds).Endpoint("predict")
		const workers, per = 8, 2000
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					ep.Observe(time.Millisecond, i%7 == 0)
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reg.Write(io.Discard)
			}
		}()
		wg.Wait()

		const total = workers * per
		if got := ep.Requests.Load(); got != total {
			t.Fatalf("%s: requests = %d, want %d", name, got, total)
		}
		if got := ep.Latency.Snapshot().Count; got != total {
			t.Fatalf("%s: histogram count = %d, want %d", name, got, total)
		}
		if got, want := scrapeSum(t, reg, "predict"), float64(total)*1e-3; math.Abs(got-want) > 1e-6 {
			t.Fatalf("%s: sum = %g, want %g (CAS lost updates?)", name, got, want)
		}
	}
}

// TestHistogramSumFidelity checks the float64-bits CAS representation
// round-trips oddly-sized values exactly.
func TestHistogramSumFidelity(t *testing.T) {
	for name, bounds := range boundSets {
		reg := NewRegistry()
		ep := reg.Endpoints("x", "Latency.", bounds).Endpoint("e")
		want := 0.0
		for _, v := range []float64{1e-7, 0.125, 3.5, 1e-3} {
			ep.Observe(time.Duration(v*float64(time.Second)), false)
			want += v
		}
		if got := scrapeSum(t, reg, "e"); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: sum = %v, want %v", name, got, want)
		}
	}
}
