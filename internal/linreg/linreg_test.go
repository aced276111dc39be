package linreg

import (
	"math"
	"testing"
	"testing/quick"

	"colocmodel/internal/linalg"
	"colocmodel/internal/xrand"
)

func TestFitRecoversKnownCoefficients(t *testing.T) {
	src := xrand.New(1)
	n, d := 100, 3
	x := linalg.NewMatrix(n, d)
	y := make([]float64, n)
	want := []float64{2, -1, 0.5}
	const c = 7.0
	for i := 0; i < n; i++ {
		s := c
		for j := 0; j < d; j++ {
			v := src.Normal(0, 1)
			x.Set(i, j, v)
			s += want[j] * v
		}
		y[i] = s
	}
	m, err := new(Fitter).Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for j := range want {
		if math.Abs(m.Coefficients[j]-want[j]) > 1e-8 {
			t.Fatalf("coef %d = %v, want %v", j, m.Coefficients[j], want[j])
		}
	}
	if math.Abs(m.Constant-c) > 1e-8 {
		t.Fatalf("constant = %v, want %v", m.Constant, c)
	}
	if len(m.Coefficients) != 3 {
		t.Fatal("coefficient count wrong")
	}
}

func TestFitErrors(t *testing.T) {
	x := linalg.NewMatrix(3, 2)
	if _, err := new(Fitter).Fit(x, []float64{1, 2}); err == nil {
		t.Fatal("mismatched labels accepted")
	}
	if _, err := new(Fitter).Fit(linalg.NewMatrix(2, 2), []float64{1, 2}); err == nil {
		t.Fatal("underdetermined system accepted")
	}
}

func TestPredictErrors(t *testing.T) {
	m := &Model{Coefficients: []float64{1, 2}, Constant: 3}
	if _, err := m.Predict([]float64{1}); err == nil {
		t.Fatal("short feature vector accepted")
	}
	if _, err := m.PredictBatch(linalg.NewMatrix(2, 3)); err == nil {
		t.Fatal("wrong-width matrix accepted")
	}
}

func TestPredictBatchMatchesPredict(t *testing.T) {
	m := &Model{Coefficients: []float64{1.5, -2}, Constant: 0.5}
	x := linalg.NewMatrixFromRows([][]float64{{1, 2}, {3, 4}})
	batch, err := m.PredictBatch(x)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < x.Rows; i++ {
		single, err := m.Predict(x.Row(i))
		if err != nil {
			t.Fatal(err)
		}
		if single != batch[i] {
			t.Fatalf("row %d: %v vs %v", i, single, batch[i])
		}
	}
}

func TestFitWithNoiseApproximates(t *testing.T) {
	src := xrand.New(2)
	n := 2000
	x := linalg.NewMatrix(n, 1)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		v := 10 * src.Float64()
		x.Set(i, 0, v)
		y[i] = 3*v + 1 + src.Normal(0, 0.5)
	}
	m, err := new(Fitter).Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Coefficients[0]-3) > 0.05 || math.Abs(m.Constant-1) > 0.15 {
		t.Fatalf("noisy fit = %+v", m)
	}
}

// Property: the fitted model is invariant to the order of samples.
func TestFitOrderInvariantProperty(t *testing.T) {
	f := func(seed uint16) bool {
		src := xrand.New(uint64(seed) + 11)
		n := 30
		rows := make([][]float64, n)
		y := make([]float64, n)
		for i := range rows {
			rows[i] = []float64{src.Normal(0, 1), src.Normal(0, 1)}
			y[i] = 2*rows[i][0] - rows[i][1] + 4 + src.Normal(0, 0.01)
		}
		m1, err := new(Fitter).Fit(linalg.NewMatrixFromRows(rows), y)
		if err != nil {
			return false
		}
		perm := src.Perm(n)
		rows2 := make([][]float64, n)
		y2 := make([]float64, n)
		for i, p := range perm {
			rows2[i] = rows[p]
			y2[i] = y[p]
		}
		m2, err := new(Fitter).Fit(linalg.NewMatrixFromRows(rows2), y2)
		if err != nil {
			return false
		}
		for j := range m1.Coefficients {
			if math.Abs(m1.Coefficients[j]-m2.Coefficients[j]) > 1e-8 {
				return false
			}
		}
		return math.Abs(m1.Constant-m2.Constant) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkFit2000x8(b *testing.B) {
	src := xrand.New(3)
	n, d := 2000, 8
	x := linalg.NewMatrix(n, d)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			x.Set(i, j, src.Normal(0, 1))
		}
		y[i] = src.Normal(0, 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := new(Fitter).Fit(x, y); err != nil {
			b.Fatal(err)
		}
	}
}
