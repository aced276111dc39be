package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorisation or solve encounters a matrix
// that is singular (or numerically so) for the requested operation.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")

// QR holds a Householder QR factorisation of an m×n matrix with m >= n.
// The factors are stored compactly: R in the upper triangle of fact, and
// the Householder vectors below the diagonal with their scaling in tau.
type QR struct {
	fact *Matrix
	tau  []float64
}

// QRFactor computes the Householder QR factorisation of a. It requires
// a.Rows >= a.Cols. The input matrix is not modified.
func QRFactor(a *Matrix) (*QR, error) {
	m, n := a.Rows, a.Cols
	if m < n {
		return nil, fmt.Errorf("linalg: QRFactor requires rows >= cols, got %dx%d", m, n)
	}
	f := a.Clone()
	tau := make([]float64, n)
	qrFactorInPlace(f, tau)
	return &QR{fact: f, tau: tau}, nil
}

// qrFactorInPlace runs the Householder sweep on f, overwriting it with
// the compact factorisation and filling tau. It is the shared core of
// QRFactor and QRWorkspace.Factorize, so both produce bit-identical
// factors.
func qrFactorInPlace(f *Matrix, tau []float64) {
	m, n := f.Rows, f.Cols
	for k := 0; k < n; k++ {
		// Norm of the k-th column below (and including) the diagonal.
		norm := 0.0
		for i := k; i < m; i++ {
			v := f.At(i, k)
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			tau[k] = 0
			continue
		}
		alpha := f.At(k, k)
		if alpha > 0 {
			norm = -norm
		}
		// Householder vector v = x - norm*e1, stored with v[0] normalised
		// implicitly: we keep v in the column and tau = 2/(v'v).
		f.Set(k, k, alpha-norm)
		vtv := 0.0
		for i := k; i < m; i++ {
			v := f.At(i, k)
			vtv += v * v
		}
		if vtv == 0 {
			tau[k] = 0
			f.Set(k, k, norm)
			continue
		}
		tau[k] = 2 / vtv
		// Apply the reflector to the remaining columns.
		for j := k + 1; j < n; j++ {
			dot := 0.0
			for i := k; i < m; i++ {
				dot += f.At(i, k) * f.At(i, j)
			}
			dot *= tau[k]
			for i := k; i < m; i++ {
				f.Set(i, j, f.At(i, j)-dot*f.At(i, k))
			}
		}
		// Store R's diagonal entry; the Householder vector stays below.
		// We stash v_k components in the column and remember r_kk
		// separately by overwriting after application: keep v in column,
		// diagonal of R goes to a parallel location. To stay compact we
		// put r_kk in the diagonal and rescale v so v[0] = 1 implicitly.
		vkk := f.At(k, k)
		if vkk != 0 {
			inv := 1 / vkk
			for i := k + 1; i < m; i++ {
				f.Set(i, k, f.At(i, k)*inv)
			}
			tau[k] *= vkk * vkk
		}
		f.Set(k, k, norm)
	}
}

// applyQTInPlace computes y ← Qᵀ·y in place for a length-m vector.
func applyQTInPlace(fact *Matrix, tau, y []float64) {
	m, n := fact.Rows, fact.Cols
	if len(y) != m {
		panic("linalg: applyQT length mismatch")
	}
	for k := 0; k < n; k++ {
		if tau[k] == 0 {
			continue
		}
		// v = [1, fact[k+1..m, k]]
		dot := y[k]
		for i := k + 1; i < m; i++ {
			dot += fact.At(i, k) * y[i]
		}
		dot *= tau[k]
		y[k] -= dot
		for i := k + 1; i < m; i++ {
			y[i] -= dot * fact.At(i, k)
		}
	}
}

// Solve solves the least-squares problem min ‖a·x − b‖₂ given the
// factorisation of a. It returns ErrSingular if R has a (numerically)
// zero diagonal entry, which indicates rank deficiency.
func (qr *QR) Solve(b []float64) ([]float64, error) {
	m, n := qr.fact.Rows, qr.fact.Cols
	if len(b) != m {
		return nil, fmt.Errorf("linalg: QR.Solve rhs length %d, want %d", len(b), m)
	}
	y := make([]float64, m)
	copy(y, b)
	x := make([]float64, n)
	if err := qrSolveInto(qr.fact, qr.tau, y, x); err != nil {
		return nil, err
	}
	return x, nil
}

// qrSolveInto solves the least-squares problem given the compact factors:
// y holds the right-hand side on entry (length m) and is destroyed; x
// (length n) receives the solution. No allocations.
func qrSolveInto(fact *Matrix, tau, y, x []float64) error {
	n := fact.Cols
	applyQTInPlace(fact, tau, y)
	// Back substitution on R x = y[:n].
	// Tolerance scaled by the largest diagonal magnitude.
	maxDiag := 0.0
	for k := 0; k < n; k++ {
		if d := math.Abs(fact.At(k, k)); d > maxDiag {
			maxDiag = d
		}
	}
	tol := maxDiag * 1e-13 * float64(n)
	for i := n - 1; i >= 0; i-- {
		d := fact.At(i, i)
		if math.Abs(d) <= tol {
			return ErrSingular
		}
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= fact.At(i, j) * x[j]
		}
		x[i] = s / d
	}
	return nil
}

// LeastSquares solves min ‖a·x − b‖₂ via Householder QR. If the system is
// rank-deficient it falls back to ridge-regularised normal equations with a
// tiny lambda, which matches the pseudo-inverse behaviour of SciPy's lstsq
// closely enough for the model-fitting use here.
func LeastSquares(a *Matrix, b []float64) ([]float64, error) {
	qr, err := QRFactor(a)
	if err != nil {
		return nil, err
	}
	x, err := qr.Solve(b)
	if err == nil {
		return x, nil
	}
	if !errors.Is(err, ErrSingular) {
		return nil, err
	}
	return RidgeRegression(a, b, 1e-8)
}

// RidgeRegression solves (AᵀA + λI) x = Aᵀb via Cholesky. λ must be
// positive; it both regularises ill-conditioned fits and guarantees a
// solution for rank-deficient systems.
func RidgeRegression(a *Matrix, b []float64, lambda float64) ([]float64, error) {
	if lambda <= 0 {
		return nil, errors.New("linalg: ridge lambda must be positive")
	}
	if a.Rows != len(b) {
		return nil, fmt.Errorf("linalg: ridge rhs length %d, want %d", len(b), a.Rows)
	}
	n := a.Cols
	ata := NewMatrix(n, n)
	for i := 0; i < a.Rows; i++ {
		row := a.Data[i*a.Cols : (i+1)*a.Cols]
		for p := 0; p < n; p++ {
			if row[p] == 0 {
				continue
			}
			for q := p; q < n; q++ {
				ata.Data[p*n+q] += row[p] * row[q]
			}
		}
	}
	for p := 0; p < n; p++ {
		for q := 0; q < p; q++ {
			ata.Data[p*n+q] = ata.Data[q*n+p]
		}
		ata.Data[p*n+p] += lambda
	}
	atb := a.T().MulVec(b)
	return CholeskySolve(ata, atb)
}

// CholeskySolve solves the symmetric positive-definite system a·x = b.
func CholeskySolve(a *Matrix, b []float64) ([]float64, error) {
	l, err := Cholesky(a)
	if err != nil {
		return nil, err
	}
	n := a.Rows
	// Forward substitution L y = b.
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		s := b[i]
		for j := 0; j < i; j++ {
			s -= l.At(i, j) * y[j]
		}
		y[i] = s / l.At(i, i)
	}
	// Back substitution Lᵀ x = y.
	x := make([]float64, n)
	for i := n - 1; i >= 0; i-- {
		s := y[i]
		for j := i + 1; j < n; j++ {
			s -= l.At(j, i) * x[j]
		}
		x[i] = s / l.At(i, i)
	}
	return x, nil
}

// QRWorkspace is an in-place QR/least-squares solver that factorises into
// caller-owned scratch, so repeated fits (bootstrap partitions, retrain
// attempts) perform no per-fit factorisation allocations after warmup.
// Not goroutine-safe; use one workspace per worker.
type QRWorkspace struct {
	fact Matrix
	tau  []float64
	y    []float64
}

// ensure grows the workspace buffers to hold an m×n factorisation.
func (w *QRWorkspace) ensure(m, n int) {
	if cap(w.fact.Data) < m*n {
		w.fact.Data = make([]float64, m*n)
	}
	w.fact.Rows, w.fact.Cols = m, n
	w.fact.Data = w.fact.Data[:m*n]
	if cap(w.tau) < n {
		w.tau = make([]float64, n)
	}
	w.tau = w.tau[:n]
	if cap(w.y) < m {
		w.y = make([]float64, m)
	}
	w.y = w.y[:m]
}

// Factorize copies a into the workspace and runs the Householder sweep in
// place. It produces factors bit-identical to QRFactor's.
func (w *QRWorkspace) Factorize(a *Matrix) error {
	if a.Rows < a.Cols {
		return fmt.Errorf("linalg: QRWorkspace.Factorize requires rows >= cols, got %dx%d", a.Rows, a.Cols)
	}
	w.ensure(a.Rows, a.Cols)
	copy(w.fact.Data, a.Data)
	for i := range w.tau {
		w.tau[i] = 0
	}
	qrFactorInPlace(&w.fact, w.tau)
	return nil
}

// Solve solves min ‖a·x − b‖₂ for the most recently factorised a, writing
// the solution into x (length a.Cols). It allocates nothing and returns
// ErrSingular exactly when QR.Solve would.
func (w *QRWorkspace) Solve(b, x []float64) error {
	m, n := w.fact.Rows, w.fact.Cols
	if len(b) != m {
		return fmt.Errorf("linalg: QRWorkspace.Solve rhs length %d, want %d", len(b), m)
	}
	if len(x) != n {
		return fmt.Errorf("linalg: QRWorkspace.Solve solution length %d, want %d", len(x), n)
	}
	copy(w.y, b)
	return qrSolveInto(&w.fact, w.tau, w.y, x)
}

// LeastSquares factorises a into the workspace scratch and solves
// min ‖a·x − b‖₂ into x. Rank-deficient systems fall back to the same
// ridge-regularised path as the package-level LeastSquares (which
// allocates; singularity is the rare path).
func (w *QRWorkspace) LeastSquares(a *Matrix, b, x []float64) error {
	if err := w.Factorize(a); err != nil {
		return err
	}
	err := w.Solve(b, x)
	if err == nil {
		return nil
	}
	if !errors.Is(err, ErrSingular) {
		return err
	}
	sol, err := RidgeRegression(a, b, 1e-8)
	if err != nil {
		return err
	}
	copy(x, sol)
	return nil
}

// Cholesky returns the lower-triangular factor L with a = L·Lᵀ. It returns
// ErrSingular if a is not positive definite.
func Cholesky(a *Matrix) (*Matrix, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Cholesky of non-square %dx%d", a.Rows, a.Cols)
	}
	n := a.Rows
	l := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a.At(i, j)
			for k := 0; k < j; k++ {
				s -= l.At(i, k) * l.At(j, k)
			}
			if i == j {
				if s <= 0 {
					return nil, ErrSingular
				}
				l.Set(i, i, math.Sqrt(s))
			} else {
				l.Set(i, j, s/l.At(j, j))
			}
		}
	}
	return l, nil
}
