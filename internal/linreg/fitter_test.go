package linreg

import (
	"testing"

	"colocmodel/internal/linalg"
	"colocmodel/internal/xrand"
)

func randomProblem(src *xrand.Source, rows, cols int) (*linalg.Matrix, []float64) {
	x := linalg.NewMatrix(rows, cols)
	for i := range x.Data {
		x.Data[i] = src.Normal(0, 1)
	}
	y := make([]float64, rows)
	for i := range y {
		y[i] = src.Normal(0, 2)
	}
	return x, y
}

// A reused Fitter must produce the same model as a fresh Fitter,
// bit-for-bit, regardless of what shapes it fitted before.
func TestFitterMatchesFitAcrossShapes(t *testing.T) {
	src := xrand.New(42)
	var f Fitter
	shapes := []struct{ rows, cols int }{
		{30, 4}, {8, 2}, {120, 7}, {5, 1}, {30, 4}, {64, 3},
	}
	for _, sh := range shapes {
		x, y := randomProblem(src, sh.rows, sh.cols)
		got, err := f.Fit(x, y)
		if err != nil {
			t.Fatalf("%dx%d: Fitter.Fit: %v", sh.rows, sh.cols, err)
		}
		want, err := new(Fitter).Fit(x, y)
		if err != nil {
			t.Fatalf("%dx%d: Fit: %v", sh.rows, sh.cols, err)
		}
		if got.Constant != want.Constant {
			t.Fatalf("%dx%d: constant %v != %v", sh.rows, sh.cols, got.Constant, want.Constant)
		}
		for j := range want.Coefficients {
			if got.Coefficients[j] != want.Coefficients[j] {
				t.Fatalf("%dx%d: coef %d: %v != %v", sh.rows, sh.cols, j, got.Coefficients[j], want.Coefficients[j])
			}
		}
	}
}

// The model returned by a Fitter must own its coefficients: fitting again
// with the same Fitter must not mutate previously returned models.
func TestFitterModelsIndependent(t *testing.T) {
	src := xrand.New(7)
	var f Fitter
	x1, y1 := randomProblem(src, 40, 3)
	m1, err := f.Fit(x1, y1)
	if err != nil {
		t.Fatal(err)
	}
	snap := append([]float64(nil), m1.Coefficients...)
	snapC := m1.Constant
	x2, y2 := randomProblem(src, 25, 5)
	if _, err := f.Fit(x2, y2); err != nil {
		t.Fatal(err)
	}
	if m1.Constant != snapC {
		t.Fatalf("constant mutated by later fit: %v != %v", m1.Constant, snapC)
	}
	for j := range snap {
		if m1.Coefficients[j] != snap[j] {
			t.Fatalf("coef %d mutated by later fit", j)
		}
	}
}

func TestFitterValidation(t *testing.T) {
	var f Fitter
	x := linalg.NewMatrix(3, 2)
	if _, err := f.Fit(x, []float64{1, 2}); err == nil {
		t.Fatal("want row/label mismatch error")
	}
	small := linalg.NewMatrix(2, 2)
	if _, err := f.Fit(small, []float64{1, 2}); err == nil {
		t.Fatal("want insufficient-samples error (2 rows, 2 features + intercept)")
	}
}

// PredictBatchInto must agree bit-for-bit with per-row Predict and with
// the allocating PredictBatch.
func TestPredictBatchIntoMatchesPredict(t *testing.T) {
	src := xrand.New(11)
	x, y := randomProblem(src, 50, 4)
	m, err := new(Fitter).Fit(x, y)
	if err != nil {
		t.Fatal(err)
	}
	for _, rows := range []int{0, 1, 33} {
		q := linalg.NewMatrix(rows, 4)
		for i := range q.Data {
			q.Data[i] = src.Normal(0, 3)
		}
		out := make([]float64, rows)
		if err := m.PredictBatchInto(q, out); err != nil {
			t.Fatal(err)
		}
		batch, err := m.PredictBatch(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < rows; i++ {
			want, err := m.Predict(q.Data[i*q.Cols : (i+1)*q.Cols])
			if err != nil {
				t.Fatal(err)
			}
			if out[i] != want || batch[i] != want {
				t.Fatalf("rows=%d i=%d: into=%v batch=%v scalar=%v", rows, i, out[i], batch[i], want)
			}
		}
	}
	if err := m.PredictBatchInto(linalg.NewMatrix(2, 3), make([]float64, 2)); err == nil {
		t.Fatal("want column mismatch error")
	}
	if err := m.PredictBatchInto(linalg.NewMatrix(2, 4), make([]float64, 3)); err == nil {
		t.Fatal("want output length error")
	}
}
