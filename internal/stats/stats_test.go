package stats

import (
	"math"
	"testing"
	"testing/quick"

	"colocmodel/internal/xrand"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("Mean = %v", Mean(xs))
	}
	if math.Abs(Variance(xs)-32.0/7.0) > 1e-12 {
		t.Fatalf("Variance = %v", Variance(xs))
	}
	if math.Abs(StdDev(xs)-math.Sqrt(32.0/7.0)) > 1e-12 {
		t.Fatalf("StdDev = %v", StdDev(xs))
	}
}

func TestMeanEmptyNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Fatal("Mean(nil) not NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Fatal("Variance of singleton not NaN")
	}
}

func TestMinMax(t *testing.T) {
	lo, hi := MinMax([]float64{3, -1, 7, 2})
	if lo != -1 || hi != 7 {
		t.Fatalf("MinMax = %v,%v", lo, hi)
	}
}

func TestMPEKnown(t *testing.T) {
	// Errors of +10% and -10% -> MPE 10.
	got, err := MPE([]float64{110, 90}, []float64{100, 100})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("MPE = %v, want 10", got)
	}
}

func TestMPEPerfect(t *testing.T) {
	got, err := MPE([]float64{5, 6}, []float64{5, 6})
	if err != nil || got != 0 {
		t.Fatalf("MPE perfect = %v err=%v", got, err)
	}
}

func TestMPEErrors(t *testing.T) {
	if _, err := MPE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := MPE(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := MPE([]float64{1}, []float64{0}); err == nil {
		t.Fatal("zero actual accepted")
	}
}

func TestNRMSEKnown(t *testing.T) {
	// predicted-actual = {1, -1}; RMSE = 1; range = 10 -> 10%.
	got, err := NRMSE([]float64{11, 19}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("NRMSE = %v, want 10", got)
	}
}

func TestNRMSEDegenerate(t *testing.T) {
	if _, err := NRMSE([]float64{1, 2}, []float64{5, 5}); err == nil {
		t.Fatal("zero range accepted")
	}
	if _, err := NRMSE(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := NRMSE([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestQuantileKnown(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Quantile(xs, 0) != 1 || Quantile(xs, 1) != 5 {
		t.Fatal("extreme quantiles wrong")
	}
	if Median(xs) != 3 {
		t.Fatalf("median = %v", Median(xs))
	}
	if Quantile(xs, 0.25) != 2 {
		t.Fatalf("q1 = %v", Quantile(xs, 0.25))
	}
	// Interpolation: median of {1,2,3,4} is 2.5.
	if Median([]float64{1, 2, 3, 4}) != 2.5 {
		t.Fatal("interpolated median wrong")
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated input")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4, 5})
	if s.Min != 1 || s.Max != 5 || s.Median != 3 || s.Q1 != 2 || s.Q3 != 4 || s.Mean != 3 || s.N != 5 {
		t.Fatalf("Summarize = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty summary string")
	}
}

func TestFractionWithin(t *testing.T) {
	xs := []float64{-1, 0.5, 2, -3}
	if FractionWithin(xs, 1) != 0.5 {
		t.Fatalf("FractionWithin = %v", FractionWithin(xs, 1))
	}
	if !math.IsNaN(FractionWithin(nil, 1)) {
		t.Fatal("empty not NaN")
	}
}

func TestMeanCI(t *testing.T) {
	mean, hw := MeanCI([]float64{1, 1, 1, 1})
	if mean != 1 || hw != 0 {
		t.Fatalf("MeanCI = %v ± %v", mean, hw)
	}
	_, hw1 := MeanCI([]float64{1})
	if !math.IsNaN(hw1) {
		t.Fatal("singleton CI not NaN")
	}
}

func TestPartitionerSplits(t *testing.T) {
	src := xrand.New(1)
	p, err := NewPartitioner(100, 0.3, src)
	if err != nil {
		t.Fatal(err)
	}
	part := p.Next()
	if len(part.Test) != 30 || len(part.Train) != 70 {
		t.Fatalf("split sizes %d/%d", len(part.Train), len(part.Test))
	}
	seen := make([]bool, 100)
	for _, i := range append(append([]int(nil), part.Train...), part.Test...) {
		if seen[i] {
			t.Fatalf("index %d appears twice", i)
		}
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("index %d missing", i)
		}
	}
}

func TestPartitionerVariesBetweenCalls(t *testing.T) {
	src := xrand.New(2)
	p, _ := NewPartitioner(50, 0.3, src)
	a, b := p.Next(), p.Next()
	same := true
	for i := range a.Test {
		if a.Test[i] != b.Test[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("two partitions identical")
	}
}

func TestPartitionerErrors(t *testing.T) {
	src := xrand.New(3)
	if _, err := NewPartitioner(1, 0.3, src); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := NewPartitioner(10, 0, src); err == nil {
		t.Fatal("frac=0 accepted")
	}
	if _, err := NewPartitioner(10, 1, src); err == nil {
		t.Fatal("frac=1 accepted")
	}
	if _, err := NewPartitioner(10, math.NaN(), src); err == nil {
		t.Fatal("frac=NaN accepted")
	}
	if _, err := NewPartitioner(3, 0.01, src); err == nil {
		t.Fatal("empty test split accepted")
	}
}

func TestPartitionsCount(t *testing.T) {
	src := xrand.New(4)
	p, _ := NewPartitioner(20, 0.3, src)
	ps := p.Partitions(100)
	if len(ps) != 100 {
		t.Fatalf("got %d partitions", len(ps))
	}
}

// Property: a partition is always an exact disjoint cover of [0,n).
func TestPartitionProperty(t *testing.T) {
	f := func(seed uint16, nRaw uint8) bool {
		n := int(nRaw%200) + 10
		src := xrand.New(uint64(seed))
		p, err := NewPartitioner(n, 0.3, src)
		if err != nil {
			return false
		}
		part := p.Next()
		if len(part.Train)+len(part.Test) != n {
			return false
		}
		seen := make([]bool, n)
		for _, i := range part.Train {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		for _, i := range part.Test {
			if seen[i] {
				return false
			}
			seen[i] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: MPE is invariant under uniform scaling of both predicted and
// actual values (magnitude independence, the paper's stated reason for
// choosing it).
func TestMPEScaleInvariantProperty(t *testing.T) {
	f := func(seed uint16) bool {
		src := xrand.New(uint64(seed) + 7)
		n := 5 + src.Intn(20)
		pred := make([]float64, n)
		act := make([]float64, n)
		for i := range act {
			act[i] = 100 + 900*src.Float64()
			pred[i] = act[i] * (0.8 + 0.4*src.Float64())
		}
		m1, err1 := MPE(pred, act)
		scale := 0.5 + 49.5*src.Float64()
		sp := make([]float64, n)
		sa := make([]float64, n)
		for i := range act {
			sp[i], sa[i] = pred[i]*scale, act[i]*scale
		}
		m2, err2 := MPE(sp, sa)
		return err1 == nil && err2 == nil && math.Abs(m1-m2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMPE(b *testing.B) {
	src := xrand.New(5)
	n := 2000
	pred := make([]float64, n)
	act := make([]float64, n)
	for i := range act {
		act[i] = 100 + 900*src.Float64()
		pred[i] = act[i] * (0.9 + 0.2*src.Float64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := MPE(pred, act); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPartitioner(b *testing.B) {
	src := xrand.New(6)
	p, _ := NewPartitioner(2000, 0.3, src)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = p.Next()
	}
}

func TestPearsonKnown(t *testing.T) {
	r, err := Pearson([]float64{1, 2, 3, 4}, []float64{2, 4, 6, 8})
	if err != nil || math.Abs(r-1) > 1e-12 {
		t.Fatalf("perfect correlation = %v, %v", r, err)
	}
	r, _ = Pearson([]float64{1, 2, 3, 4}, []float64{8, 6, 4, 2})
	if math.Abs(r+1) > 1e-12 {
		t.Fatalf("perfect anticorrelation = %v", r)
	}
	r, _ = Pearson([]float64{1, 2, 3}, []float64{5, 5, 5})
	if r != 0 {
		t.Fatalf("constant series correlation = %v", r)
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := Pearson([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

func TestCorrelationMatrix(t *testing.T) {
	src := xrand.New(30)
	n := 500
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := 0; i < n; i++ {
		a[i] = src.Normal(0, 1)
		b[i] = 2*a[i] + src.Normal(0, 0.01) // ~perfectly correlated with a
		c[i] = src.Normal(0, 1)             // independent
	}
	m, err := CorrelationMatrix([][]float64{a, b, c})
	if err != nil {
		t.Fatal(err)
	}
	if m[0][0] != 1 || m[1][1] != 1 {
		t.Fatal("diagonal not 1")
	}
	if m[0][1] < 0.99 {
		t.Fatalf("correlated pair r=%v", m[0][1])
	}
	if math.Abs(m[0][2]) > 0.15 {
		t.Fatalf("independent pair r=%v", m[0][2])
	}
	if m[0][1] != m[1][0] {
		t.Fatal("matrix not symmetric")
	}
	if _, err := CorrelationMatrix(nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := CorrelationMatrix([][]float64{{1, 2}, {1}}); err == nil {
		t.Fatal("ragged accepted")
	}
}
