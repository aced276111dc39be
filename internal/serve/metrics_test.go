package serve

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"
)

// modelsLoaded is the scrape-time gauge value the metrics tests pin: 2
// models loaded.
func modelsLoaded() float64 { return 2 }

func scrape(m *Metrics) string {
	var buf bytes.Buffer
	m.reg.Write(&buf)
	return buf.String()
}

// TestMetricsGolden drives the metrics layer through a fixed sequence
// of calls and compares the scrape byte for byte with one captured from
// the hand-written renderer the registry replaced (PR 12's
// WritePrometheus), less the coloserve_metrics_dropped_total family
// that went with the unregistered-endpoint branch and the three
// coloserve_cache_* series that went with the prediction memo.
func TestMetricsGolden(t *testing.T) {
	m := NewMetrics(modelsLoaded)
	predict, schedule, metrics := m.endpoints.Endpoint("predict"), m.endpoints.Endpoint("schedule"), m.endpoints.Endpoint("metrics")
	for i := 0; i < 40; i++ {
		predict.Observe(time.Duration(i*i)*7*time.Microsecond, i%9 == 0)
	}
	schedule.Observe(2*time.Second, false)
	schedule.Observe(7*time.Second, true)
	metrics.Observe(350*time.Microsecond, false)
	m.SwapsRecorded(1)
	m.SwapsRecorded(2)
	m.inFlight.Add(2)
	m.inFlight.Add(-1)
	m.obsIngested.Add(5)
	m.obsRejected.Inc()
	m.driftTrips.Inc()

	golden, err := os.ReadFile("testdata/metrics.golden")
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	for _, line := range strings.SplitAfter(string(golden), "\n") {
		if !strings.Contains(line, "coloserve_metrics_dropped_total") {
			want.WriteString(line)
		}
	}
	if got := scrape(m); got != want.String() {
		t.Fatalf("scrape differs from testdata/metrics.golden:\n%s", got)
	}
}

func TestSwapsRecorded(t *testing.T) {
	m := NewMetrics(modelsLoaded)
	m.SwapsRecorded(1)
	m.SwapsRecorded(3)
	m.SwapsRecorded(0)
	m.SwapsRecorded(-5)
	if out := scrape(m); !strings.Contains(out, "coloserve_model_swaps_total 4") {
		t.Fatalf("swaps counter wrong:\n%s", out)
	}
}

// TestPrometheusScrapeFormat sanity-checks the exposition text: every
// sample's metric family is declared by a preceding # TYPE line, HELP
// precedes TYPE, and histogram bucket counts are monotone in le with
// the +Inf bucket equal to _count.
func TestPrometheusScrapeFormat(t *testing.T) {
	m := NewMetrics(modelsLoaded)
	for i := 0; i < 100; i++ {
		m.endpoints.Endpoint("predict").Observe(time.Duration(i)*100*time.Microsecond, i%9 == 0)
	}
	m.endpoints.Endpoint("schedule").Observe(2*time.Second, false)
	m.SwapsRecorded(2)

	typed := map[string]string{} // family → type
	helped := map[string]bool{}
	buckets := map[string][]uint64{} // endpoint → cumulative bucket counts
	infCount := map[string]uint64{}
	sampleCount := map[string]uint64{}

	sc := bufio.NewScanner(strings.NewReader(scrape(m)))
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# HELP "); ok {
			helped[strings.Fields(rest)[0]] = true
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) != 2 {
				t.Fatalf("bad TYPE line %q", line)
			}
			if !helped[f[0]] {
				t.Fatalf("TYPE before HELP for %s", f[0])
			}
			typed[f[0]] = f[1]
			continue
		}
		// Sample line: name{labels} value or name value.
		name := line
		if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if f, ok := strings.CutSuffix(name, suffix); ok && typed[f] == "histogram" {
				family = f
			}
		}
		if _, ok := typed[family]; !ok {
			t.Fatalf("sample %q has no preceding # TYPE", line)
		}
		fields := strings.Fields(line)
		val, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		if typed[family] == "counter" && val < 0 {
			t.Fatalf("negative counter %q", line)
		}
		if strings.HasSuffix(name, "_bucket") {
			ep := labelValue(t, line, "endpoint")
			buckets[ep] = append(buckets[ep], uint64(val))
			if labelValue(t, line, "le") == "+Inf" {
				infCount[ep] = uint64(val)
			}
		}
		if name == "coloserve_request_duration_seconds_count" {
			sampleCount[labelValue(t, line, "endpoint")] = uint64(val)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(buckets) != 2 {
		t.Fatalf("bucket series for %d endpoints, want 2", len(buckets))
	}
	for ep, bs := range buckets {
		if len(bs) != len(latencyBuckets)+1 {
			t.Fatalf("%s: %d bucket lines, want %d", ep, len(bs), len(latencyBuckets)+1)
		}
		for i := 1; i < len(bs); i++ {
			if bs[i] < bs[i-1] {
				t.Fatalf("%s: bucket counts not monotone: %v", ep, bs)
			}
		}
		if infCount[ep] != sampleCount[ep] {
			t.Fatalf("%s: +Inf bucket %d != _count %d", ep, infCount[ep], sampleCount[ep])
		}
	}
	if sampleCount["predict"] != 100 || sampleCount["schedule"] != 1 {
		t.Fatalf("sample counts: %v", sampleCount)
	}
}

func labelValue(t *testing.T, line, key string) string {
	t.Helper()
	needle := key + `="`
	i := strings.Index(line, needle)
	if i < 0 {
		t.Fatalf("label %s missing in %q", key, line)
	}
	rest := line[i+len(needle):]
	j := strings.IndexByte(rest, '"')
	if j < 0 {
		t.Fatalf("unterminated label in %q", line)
	}
	return rest[:j]
}
