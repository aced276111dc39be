package xrand

import "math"

// Weighted samples integers in [0, n) with probability proportional to a
// fixed weight per index. It precomputes the cumulative distribution for
// O(log n) sampling via binary search, mirroring Zipf. Zero-weight
// indices are never drawn. The load generator uses it for its operation
// mix (predict vs. batch vs. observation vs. reload traffic).
type Weighted struct {
	cdf []float64
	src *Source
}

// NewWeighted returns a sampler over [0, len(weights)). Weights must be
// non-negative, finite, and sum to a positive value.
func NewWeighted(src *Source, weights []float64) *Weighted {
	if len(weights) == 0 {
		panic("xrand: NewWeighted with no weights")
	}
	cdf := make([]float64, len(weights))
	sum := 0.0
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			panic("xrand: NewWeighted weights must be non-negative and finite")
		}
		sum += w
		cdf[i] = sum
	}
	if sum <= 0 {
		panic("xrand: NewWeighted with zero total weight")
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[len(cdf)-1] = 1 // guard against rounding
	return &Weighted{cdf: cdf, src: src}
}

// Next draws the next weighted index.
func (w *Weighted) Next() int {
	u := w.src.Float64()
	lo, hi := 0, len(w.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if w.cdf[mid] <= u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
