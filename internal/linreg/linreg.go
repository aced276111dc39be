// Package linreg implements the linear modeling technique of Section
// III-C: a least-squares fit of Eq. 1,
//
//	co-located execution time = Σ coefficientᵢ · featureᵢ + constant,
//
// solved by Householder QR (the stand-in for SciPy's linear least squares
// used by the paper).
package linreg

import (
	"fmt"

	"colocmodel/internal/linalg"
)

// Model is a fitted linear predictor.
type Model struct {
	// Coefficients holds one weight per feature, in feature order.
	Coefficients []float64
	// Constant is the intercept term of Eq. 1.
	Constant float64
}

// Fitter fits linear models while reusing its augmented design matrix and
// Householder QR scratch across calls, so repeated fits (the evaluation
// protocol trains hundreds) allocate only the returned Model. A Fitter is
// not goroutine-safe; keep one per worker.
type Fitter struct {
	aug linalg.Matrix
	qr  linalg.QRWorkspace
	sol []float64
}

// Fit trains a model on x and y, reusing the Fitter's scratch. The
// returned Model owns its coefficients and stays valid after further fits.
func (f *Fitter) Fit(x *linalg.Matrix, y []float64) (*Model, error) {
	if x.Rows != len(y) {
		return nil, fmt.Errorf("linreg: %d rows but %d labels", x.Rows, len(y))
	}
	if x.Rows < x.Cols+1 {
		return nil, fmt.Errorf("linreg: %d samples insufficient for %d features plus intercept", x.Rows, x.Cols)
	}
	// Augment with the intercept column.
	rows, cols := x.Rows, x.Cols+1
	if cap(f.aug.Data) < rows*cols {
		f.aug.Data = make([]float64, rows*cols)
	}
	f.aug.Rows, f.aug.Cols = rows, cols
	f.aug.Data = f.aug.Data[:rows*cols]
	for i := 0; i < rows; i++ {
		copy(f.aug.Data[i*cols:], x.Data[i*x.Cols:(i+1)*x.Cols])
		f.aug.Data[i*cols+x.Cols] = 1
	}
	if cap(f.sol) < cols {
		f.sol = make([]float64, cols)
	}
	f.sol = f.sol[:cols]
	if err := f.qr.LeastSquares(&f.aug, y, f.sol); err != nil {
		return nil, err
	}
	w := append([]float64(nil), f.sol...)
	return &Model{Coefficients: w[:x.Cols], Constant: w[x.Cols]}, nil
}

// Predict evaluates Eq. 1 for one feature vector.
func (m *Model) Predict(features []float64) (float64, error) {
	if len(features) != len(m.Coefficients) {
		return 0, fmt.Errorf("linreg: %d features, model has %d coefficients", len(features), len(m.Coefficients))
	}
	out := m.Constant
	for i, f := range features {
		out += m.Coefficients[i] * f
	}
	return out, nil
}

// PredictBatch evaluates the model for every row of x.
func (m *Model) PredictBatch(x *linalg.Matrix) ([]float64, error) {
	out := make([]float64, x.Rows)
	if err := m.PredictBatchInto(x, out); err != nil {
		return nil, err
	}
	return out, nil
}

// PredictBatchInto evaluates the model for every row of x into out without
// allocating. Each row's sum starts at the constant and adds coefficient
// terms in feature order — the same order Predict uses, so results are
// bit-identical to the per-row path.
func (m *Model) PredictBatchInto(x *linalg.Matrix, out []float64) error {
	if x.Cols != len(m.Coefficients) {
		return fmt.Errorf("linreg: matrix has %d columns, model has %d coefficients", x.Cols, len(m.Coefficients))
	}
	if len(out) != x.Rows {
		return fmt.Errorf("linreg: output length %d for %d rows", len(out), x.Rows)
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Data[i*x.Cols : (i+1)*x.Cols]
		s := m.Constant
		for j, f := range row {
			s += m.Coefficients[j] * f
		}
		out[i] = s
	}
	return nil
}
