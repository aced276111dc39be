package stats

import (
	"fmt"
	"math"
)

// Pearson returns the Pearson product-moment correlation of xs and ys.
// It returns 0 for degenerate inputs (constant series), and an error for
// mismatched or too-short inputs.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, fmt.Errorf("stats: Pearson length mismatch %d vs %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return 0, fmt.Errorf("stats: Pearson needs at least 2 samples")
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, nil
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// CorrelationMatrix returns the Pearson correlation matrix of the columns
// of data (each inner slice is one column/series of equal length).
func CorrelationMatrix(columns [][]float64) ([][]float64, error) {
	d := len(columns)
	if d == 0 {
		return nil, fmt.Errorf("stats: no columns")
	}
	n := len(columns[0])
	for j, c := range columns {
		if len(c) != n {
			return nil, fmt.Errorf("stats: column %d has %d samples, want %d", j, len(c), n)
		}
	}
	out := make([][]float64, d)
	for i := range out {
		out[i] = make([]float64, d)
		out[i][i] = 1
	}
	for i := 0; i < d; i++ {
		for j := i + 1; j < d; j++ {
			r, err := Pearson(columns[i], columns[j])
			if err != nil {
				return nil, err
			}
			out[i][j] = r
			out[j][i] = r
		}
	}
	return out, nil
}
