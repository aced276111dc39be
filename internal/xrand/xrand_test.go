package xrand

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDistinctStreams(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 1000; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 1 and 2 produced %d identical outputs of 1000", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	c1 := parent.Split()
	c2 := parent.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("sibling splits produced identical first outputs")
	}
}

func TestZeroSeedValid(t *testing.T) {
	s := New(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		seen[s.Uint64()] = true
	}
	if len(seen) < 100 {
		t.Fatalf("zero-seeded source produced repeats: %d distinct of 100", len(seen))
	}
}

func TestFloat64Range(t *testing.T) {
	s := New(3)
	for i := 0; i < 100000; i++ {
		v := s.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	s := New(4)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += s.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	s := New(6)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		v := s.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) out of range: %d", v)
		}
		counts[v]++
	}
	for d, c := range counts {
		frac := float64(c) / n
		if math.Abs(frac-0.1) > 0.01 {
			t.Fatalf("Intn(10) digit %d frequency %v, want ~0.1", d, frac)
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnOne(t *testing.T) {
	s := New(8)
	for i := 0; i < 100; i++ {
		if v := s.Intn(1); v != 0 {
			t.Fatalf("Intn(1) = %d, want 0", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	s := New(10)
	const n = 200000
	mean, m2 := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := s.Normal(5, 2)
		mean += v
		m2 += v * v
	}
	mean /= n
	variance := m2/n - mean*mean
	if math.Abs(mean-5) > 0.02 {
		t.Fatalf("Normal mean = %v, want ~5", mean)
	}
	if math.Abs(variance-4) > 0.1 {
		t.Fatalf("Normal variance = %v, want ~4", variance)
	}
}

func TestLogNormalPositive(t *testing.T) {
	s := New(11)
	for i := 0; i < 10000; i++ {
		if v := s.LogNormal(0, 1); v <= 0 {
			t.Fatalf("LogNormal returned non-positive %v", v)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	s := New(14)
	if err := quick.Check(func(nRaw uint8) bool {
		n := int(nRaw%64) + 1
		p := s.Perm(n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBoolProbability(t *testing.T) {
	s := New(16)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if s.Bool(0.3) {
			hits++
		}
	}
	frac := float64(hits) / n
	if math.Abs(frac-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", frac)
	}
}

func TestZipfSupport(t *testing.T) {
	s := New(17)
	z := NewZipf(s, 1.0, 50)
	if len(z.cdf) != 50 {
		t.Fatalf("N = %d, want 50", len(z.cdf))
	}
	for i := 0; i < 10000; i++ {
		v := z.Next()
		if v < 0 || v >= 50 {
			t.Fatalf("Zipf out of range: %d", v)
		}
	}
}

func TestZipfSkew(t *testing.T) {
	s := New(18)
	z := NewZipf(s, 1.2, 100)
	counts := make([]int, 100)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[z.Next()]++
	}
	if counts[0] <= counts[50] {
		t.Fatalf("Zipf not skewed: rank0=%d rank50=%d", counts[0], counts[50])
	}
	// Empirical frequency of rank 0 should be close to its analytic mass.
	want := zipfProb(z, 0)
	got := float64(counts[0]) / n
	if math.Abs(got-want) > 0.01 {
		t.Fatalf("Zipf rank-0 frequency %v, want ~%v", got, want)
	}
}

func TestZipfUniformWhenSZero(t *testing.T) {
	s := New(19)
	z := NewZipf(s, 0, 10)
	for i := 0; i < 10; i++ {
		if math.Abs(zipfProb(z, i)-0.1) > 1e-12 {
			t.Fatalf("Zipf(s=0) mass of %d is %v, want 0.1", i, zipfProb(z, i))
		}
	}
}

func TestZipfProbSumsToOne(t *testing.T) {
	s := New(20)
	z := NewZipf(s, 0.8, 37)
	sum := 0.0
	for i := 0; i < len(z.cdf); i++ {
		sum += zipfProb(z, i)
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("Zipf masses sum to %v", sum)
	}
}

func TestZipfPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewZipf(n=0) did not panic")
		}
	}()
	NewZipf(New(1), 1, 0)
}

func BenchmarkUint64(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Uint64()
	}
}

func BenchmarkNormal(b *testing.B) {
	s := New(1)
	for i := 0; i < b.N; i++ {
		_ = s.Normal(0, 1)
	}
}

func BenchmarkZipfNext(b *testing.B) {
	s := New(1)
	z := NewZipf(s, 1.1, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

// zipfProb is the probability mass of rank i under z.
func zipfProb(z *Zipf, i int) float64 {
	if i == 0 {
		return z.cdf[0]
	}
	return z.cdf[i] - z.cdf[i-1]
}
