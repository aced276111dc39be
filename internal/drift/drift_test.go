package drift

import (
	"math"
	"testing"

	"colocmodel/internal/xrand"
)

// centered residual stream: noise around zero, the healthy regime.
func centered(src *xrand.Source) float64 { return src.Normal(0, 1.5) }

// shifted residual stream: a sustained bias, the drifted regime.
func shifted(src *xrand.Source) float64 { return src.Normal(-25, 3) }

func TestNoTripOnCenteredNoise(t *testing.T) {
	m := NewMonitor(Config{Lambda: 50, MinSamples: 30})
	src := xrand.New(7)
	for i := 0; i < 5000; i++ {
		if m.Observe("primary", "canneal", centered(src)) {
			t.Fatalf("tripped on centered noise at observation %d", i)
		}
	}
	r := m.Report()
	if r.Tripped {
		t.Fatal("report tripped on centered noise")
	}
	if len(r.Streams) != 1 || r.Streams[0].Count != 5000 {
		t.Fatalf("report wrong: %+v", r)
	}
	if math.Abs(r.Streams[0].MeanPct) > 0.5 {
		t.Fatalf("mean pct = %v, want ~0", r.Streams[0].MeanPct)
	}
}

func TestTripsOnSustainedShift(t *testing.T) {
	m := NewMonitor(Config{Lambda: 50, MinSamples: 10})
	src := xrand.New(11)
	// Healthy prefix.
	for i := 0; i < 200; i++ {
		if m.Observe("primary", "canneal", centered(src)) {
			t.Fatal("tripped during healthy prefix")
		}
	}
	// Injected shift: must trip, exactly once.
	trips := 0
	tripAt := -1
	for i := 0; i < 200; i++ {
		if m.Observe("primary", "canneal", shifted(src)) {
			trips++
			tripAt = i
		}
	}
	if trips != 1 {
		t.Fatalf("trips = %d, want exactly 1 (sticky)", trips)
	}
	if tripAt > 50 {
		t.Fatalf("detector needed %d shifted samples, want prompt detection", tripAt)
	}
	r := m.Report()
	if !r.Tripped || !r.Streams[0].Tripped {
		t.Fatal("report does not show the trip")
	}
	if r.MaxScore <= 50 {
		t.Fatalf("max score = %v, want > lambda", r.MaxScore)
	}
	if !m.Tripped() {
		t.Fatal("Tripped() false after trip")
	}
}

// The detector is two-sided: a positive shift (over-prediction) trips
// just like a negative one.
func TestTripsOnPositiveShift(t *testing.T) {
	m := NewMonitor(Config{Lambda: 50, MinSamples: 10})
	src := xrand.New(3)
	for i := 0; i < 200; i++ {
		if m.Observe("primary", "cg", centered(src)) {
			t.Fatal("tripped during healthy prefix")
		}
	}
	tripped := false
	for i := 0; i < 300; i++ {
		if m.Observe("primary", "cg", src.Normal(+20, 2)) {
			tripped = true
		}
	}
	if !tripped {
		t.Fatal("positive shift never tripped")
	}
}

func TestMinSamplesGuard(t *testing.T) {
	m := NewMonitor(Config{Lambda: 5, MinSamples: 50})
	for i := 0; i < 49; i++ {
		if m.Observe("primary", "cg", -100) {
			t.Fatalf("tripped at %d observations, below MinSamples", i+1)
		}
	}
}

func TestStreamsAreIndependentAndResettable(t *testing.T) {
	m := NewMonitor(Config{Lambda: 30, MinSamples: 5})
	src := xrand.New(5)
	// Healthy prefix on every stream, then only a/canneal shifts:
	// Page–Hinkley detects the change-point relative to each stream's
	// own history.
	for i := 0; i < 100; i++ {
		m.Observe("a", "canneal", centered(src))
		m.Observe("a", "cg", centered(src))
		m.Observe("b", "canneal", centered(src))
	}
	for i := 0; i < 100; i++ {
		m.Observe("a", "canneal", shifted(src)) // drifts
		m.Observe("a", "cg", centered(src))     // stays healthy
		m.Observe("b", "canneal", centered(src))
	}
	r := m.Report()
	if len(r.Streams) != 3 {
		t.Fatalf("streams = %d, want 3", len(r.Streams))
	}
	// Sorted by model then target.
	if r.Streams[0].Model != "a" || r.Streams[0].Target != "canneal" || r.Streams[2].Model != "b" {
		t.Fatalf("sort order wrong: %+v", r.Streams)
	}
	if !r.Streams[0].Tripped || r.Streams[1].Tripped || r.Streams[2].Tripped {
		t.Fatalf("trip isolation wrong: %+v", r.Streams)
	}
	// Reset clears only model a's streams.
	m.Reset("a")
	r = m.Report()
	if len(r.Streams) != 1 || r.Streams[0].Model != "b" {
		t.Fatalf("reset wrong: %+v", r.Streams)
	}
	if m.Tripped() {
		t.Fatal("still tripped after reset")
	}
}

func TestWelfordMatchesDirectMoments(t *testing.T) {
	m := NewMonitor(Config{})
	src := xrand.New(13)
	var xs []float64
	for i := 0; i < 1000; i++ {
		x := src.Normal(3, 7)
		xs = append(xs, x)
		m.Observe("primary", "cg", x)
	}
	mean, absSum, sq := 0.0, 0.0, 0.0
	for _, x := range xs {
		mean += x
		absSum += math.Abs(x)
	}
	mean /= float64(len(xs))
	absSum /= float64(len(xs))
	for _, x := range xs {
		sq += (x - mean) * (x - mean)
	}
	std := math.Sqrt(sq / float64(len(xs)-1))
	s := m.Report().Streams[0]
	if math.Abs(s.MeanPct-mean) > 1e-9 || math.Abs(s.StdPct-std) > 1e-9 || math.Abs(s.MeanAbsPct-absSum) > 1e-9 {
		t.Fatalf("moments diverge: got (%v,%v,%v) want (%v,%v,%v)",
			s.MeanPct, s.StdPct, s.MeanAbsPct, mean, std, absSum)
	}
}

func TestConcurrentObserve(t *testing.T) {
	m := NewMonitor(Config{})
	done := make(chan struct{})
	for g := 0; g < 8; g++ {
		go func(g int) {
			src := xrand.New(uint64(g))
			for i := 0; i < 500; i++ {
				m.Observe("primary", "cg", centered(src))
			}
			done <- struct{}{}
		}(g)
	}
	for g := 0; g < 8; g++ {
		<-done
	}
	if n := m.Report().Streams[0].Count; n != 4000 {
		t.Fatalf("count = %d, want 4000", n)
	}
}
