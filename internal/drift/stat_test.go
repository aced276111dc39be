package drift

// Statistical guarantees of the Page–Hinkley detector, checked over
// many independently seeded residual streams. The detector gates
// automatic retraining, so both error directions matter: a false trip
// wastes a training run and resets healthy drift state; a missed (or
// slow) detection leaves a mismatched model in service. All streams are
// generated from fixed seeds, so the measured rates are deterministic
// and the bounds cannot flake.

import (
	"fmt"
	"testing"

	"colocmodel/internal/xrand"
)

const (
	statStreams = 200
	noiseSigma  = 3.0 // residual noise in percent-error points
)

// TestFalseTripRateUnderPureNoise feeds zero-mean Gaussian residuals —
// a healthy model whose errors are noise around zero — into freshly
// seeded monitors and bounds the fraction of streams that ever trip
// under the default configuration. Each stream is 500 observations, an
// order of magnitude past MinSamples, so slow score accumulation has
// room to surface.
func TestFalseTripRateUnderPureNoise(t *testing.T) {
	trips := 0
	for s := 0; s < statStreams; s++ {
		src := xrand.New(uint64(1000 + s))
		m := NewMonitor(Config{}) // defaults: Lambda 50, MinSamples 30
		for i := 0; i < 500; i++ {
			if m.Observe("m", "app", src.Normal(0, noiseSigma)) {
				trips++
				break
			}
		}
	}
	// With delta = 2 the accumulators shed two points of slack per
	// observation, so a Lambda=50 excursion from sigma=3 noise alone is
	// a large-deviation event. Allow 2% for the fixed seed set (the
	// observed rate is 0).
	if rate := float64(trips) / statStreams; rate > 0.02 {
		t.Fatalf("false-trip rate %.3f (%d/%d streams) exceeds 0.02", rate, trips, statStreams)
	}
}

// TestSustainedShiftTripsQuickly injects a sustained mean shift —
// residuals jump from N(0,σ) to N(12,σ), a model suddenly
// under-predicting by ~12% — after a clean prefix, and requires every
// seeded stream to (a) stay quiet through the prefix and (b) trip
// within a bounded number of post-shift observations.
func TestSustainedShiftTripsQuickly(t *testing.T) {
	const (
		prefix    = 100
		shiftMean = 12.0
		maxDetect = 60 // post-shift observations allowed before detection
	)
	worst := 0
	for s := 0; s < statStreams; s++ {
		src := xrand.New(uint64(5000 + s))
		m := NewMonitor(Config{})
		for i := 0; i < prefix; i++ {
			if m.Observe("m", "app", src.Normal(0, noiseSigma)) {
				t.Fatalf("seed %d: tripped during the clean prefix at observation %d", s, i)
			}
		}
		detected := -1
		for i := 0; i < maxDetect; i++ {
			if m.Observe("m", "app", src.Normal(shiftMean, noiseSigma)) {
				detected = i + 1
				break
			}
		}
		if detected < 0 {
			t.Fatalf("seed %d: no trip within %d observations after a %.0f-point shift",
				s, maxDetect, shiftMean)
		}
		if detected > worst {
			worst = detected
		}
	}
	t.Logf("worst-case detection delay: %d observations", worst)
	// The shift clears delta by ~10 points per observation, so the score
	// reaches Lambda=50 in roughly 5–15 observations even as the running
	// mean starts absorbing the shift.
	if worst > 30 {
		t.Fatalf("worst-case detection delay %d exceeds 30 observations", worst)
	}
}

// TestShiftDirectionSymmetry verifies the detector is genuinely
// two-sided: a downward shift (systematic over-prediction) must be
// caught exactly like an upward one.
func TestShiftDirectionSymmetry(t *testing.T) {
	for _, dir := range []float64{+1, -1} {
		dir := dir
		t.Run(fmt.Sprintf("dir=%+g", dir), func(t *testing.T) {
			for s := 0; s < 50; s++ {
				src := xrand.New(uint64(9000 + s))
				m := NewMonitor(Config{})
				for i := 0; i < 100; i++ {
					if m.Observe("m", "app", src.Normal(0, noiseSigma)) {
						t.Fatalf("seed %d: tripped on noise", s)
					}
				}
				tripped := false
				for i := 0; i < 60; i++ {
					if m.Observe("m", "app", src.Normal(dir*12, noiseSigma)) {
						tripped = true
						break
					}
				}
				if !tripped {
					t.Fatalf("seed %d: %+g-direction shift never detected", s, dir)
				}
			}
		})
	}
}

// TestStreamsAreIsolated checks that a shift in one (model × target)
// stream cannot trip — or inflate the score of — an unrelated stream.
func TestStreamsAreIsolated(t *testing.T) {
	src := xrand.New(77)
	m := NewMonitor(Config{})
	// Page–Hinkley detects changes against a stream's own history, so
	// the shifted stream needs a clean prefix before its mean jumps.
	for i := 0; i < 200; i++ {
		mean := 0.0
		if i >= 100 {
			mean = 15
		}
		m.Observe("m", "shifted", src.Normal(mean, noiseSigma))
		m.Observe("m", "healthy", src.Normal(0, noiseSigma))
	}
	rep := m.Report()
	if len(rep.Streams) != 2 {
		t.Fatalf("report has %d streams, want 2", len(rep.Streams))
	}
	for _, st := range rep.Streams {
		switch st.Target {
		case "shifted":
			if !st.Tripped {
				t.Error("shifted stream never tripped")
			}
		case "healthy":
			if st.Tripped {
				t.Error("healthy stream tripped by neighbour's shift")
			}
		}
	}
}
