// Package pca implements principal component analysis, the feature-ranking
// step of Section III-B: "The eight features were chosen by performing a
// principal component analysis (PCA) on the data collected from multicore
// processors ... PCA allows all of the features that were gathered to be
// ranked according to variance of their output."
//
// Columns are standardised before the eigendecomposition (a correlation
// PCA) so that features with large raw magnitudes do not dominate.
package pca

import (
	"fmt"
	"math"
	"sort"

	"colocmodel/internal/linalg"
)

// Result holds a fitted PCA.
type Result struct {
	// Components holds the principal directions, one per column, sorted
	// by descending explained variance.
	Components *linalg.Matrix
	// Variances are the eigenvalues (variance along each component).
	Variances []float64
	// ExplainedRatio is each component's share of total variance.
	ExplainedRatio []float64
	// Mean and Std are the standardisation parameters per input column.
	Mean []float64
	Std  []float64
}

// Fit runs correlation PCA on the rows of x (samples × features).
func Fit(x *linalg.Matrix) (*Result, error) {
	if x.Rows < 2 {
		return nil, fmt.Errorf("pca: need at least 2 samples, got %d", x.Rows)
	}
	if x.Cols < 1 {
		return nil, fmt.Errorf("pca: need at least 1 feature")
	}
	n, d := x.Rows, x.Cols
	mean := make([]float64, d)
	std := make([]float64, d)
	for j := 0; j < d; j++ {
		s := 0.0
		for i := 0; i < n; i++ {
			s += x.At(i, j)
		}
		mean[j] = s / float64(n)
		ss := 0.0
		for i := 0; i < n; i++ {
			dv := x.At(i, j) - mean[j]
			ss += dv * dv
		}
		std[j] = math.Sqrt(ss / float64(n-1))
		if std[j] == 0 {
			std[j] = 1 // constant column contributes nothing
		}
	}
	// Correlation matrix C = Zᵀ Z / (n−1) with Z standardised.
	c := linalg.NewMatrix(d, d)
	for i := 0; i < n; i++ {
		row := make([]float64, d)
		for j := 0; j < d; j++ {
			row[j] = (x.At(i, j) - mean[j]) / std[j]
		}
		for p := 0; p < d; p++ {
			for q := p; q < d; q++ {
				c.Data[p*d+q] += row[p] * row[q]
			}
		}
	}
	inv := 1 / float64(n-1)
	for p := 0; p < d; p++ {
		for q := p; q < d; q++ {
			v := c.Data[p*d+q] * inv
			c.Data[p*d+q] = v
			c.Data[q*d+p] = v
		}
	}
	eig, err := linalg.JacobiEigen(c)
	if err != nil {
		return nil, err
	}
	total := 0.0
	for _, v := range eig.Values {
		if v > 0 {
			total += v
		}
	}
	ratios := make([]float64, d)
	for i, v := range eig.Values {
		if total > 0 && v > 0 {
			ratios[i] = v / total
		}
	}
	return &Result{
		Components:     eig.Vectors,
		Variances:      eig.Values,
		ExplainedRatio: ratios,
		Mean:           mean,
		Std:            std,
	}, nil
}

// FeatureScore ranks input features by their variance-weighted squared
// loadings on the *leading* principal components — those that cumulatively
// explain 75 % of the variance (the dominant correlated groups).
// Restricting to the leading components is essential: summed over all components the weighted loadings reduce to
// the correlation matrix's diagonal (identically 1 for every feature), so
// the full sum carries no ranking information. Features that load heavily
// on the dominant directions score high; features whose variance lives in
// the discarded tail score low. Scores are normalised to sum to 1.
func (r *Result) FeatureScore() []float64 {
	const cumulativeCutoff = 0.75
	d := len(r.Mean)
	scores := make([]float64, d)
	cum := 0.0
	for j := 0; j < d; j++ { // component index, descending variance
		if cum >= cumulativeCutoff && j > 0 {
			break
		}
		w := r.ExplainedRatio[j]
		cum += w
		for i := 0; i < d; i++ { // feature index
			l := r.Components.At(i, j)
			scores[i] += w * l * l
		}
	}
	total := 0.0
	for _, s := range scores {
		total += s
	}
	if total > 0 {
		for i := range scores {
			scores[i] /= total
		}
	}
	return scores
}

// Rank returns feature indices sorted by descending FeatureScore.
func (r *Result) Rank() []int {
	scores := r.FeatureScore()
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}
