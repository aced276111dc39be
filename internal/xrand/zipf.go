package xrand

import "math"

// Zipf samples integers in [0, n) with probability proportional to
// 1/(rank+1)^s. It precomputes the cumulative distribution for O(log n)
// sampling via binary search, which is faster and simpler than rejection
// sampling for the modest n used by the trace generators.
type Zipf struct {
	cdf []float64
	src *Source
}

// NewZipf returns a Zipf sampler over [0, n) with exponent s >= 0. s = 0
// degenerates to the uniform distribution.
func NewZipf(src *Source, s float64, n int) *Zipf {
	if n <= 0 {
		panic("xrand: NewZipf with non-positive n")
	}
	if s < 0 {
		panic("xrand: NewZipf with negative exponent")
	}
	cdf := make([]float64, n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	inv := 1 / sum
	for i := range cdf {
		cdf[i] *= inv
	}
	cdf[n-1] = 1 // guard against rounding
	return &Zipf{cdf: cdf, src: src}
}

// Next draws the next Zipf-distributed rank.
func (z *Zipf) Next() int {
	u := z.src.Float64()
	lo, hi := 0, len(z.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
