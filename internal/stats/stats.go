// Package stats implements the statistical machinery of the paper's
// evaluation protocol: the Mean Percent Error (Eq. 2) and Normalized Root
// Mean Squared Error (Eq. 3) accuracy metrics, descriptive statistics and
// quantiles for the distribution views of Figure 5, and the repeated
// random sub-sampling (bootstrap) train/test partitioner of Section IV-B4.
package stats

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that require at least one sample.
var ErrEmpty = errors.New("stats: empty sample")

// Mean returns the arithmetic mean of xs.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased (n−1) sample variance of xs.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the unbiased sample standard deviation.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// MinMax returns the smallest and largest values of xs.
func MinMax(xs []float64) (lo, hi float64) {
	if len(xs) == 0 {
		return math.NaN(), math.NaN()
	}
	lo, hi = xs[0], xs[0]
	for _, v := range xs[1:] {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	return lo, hi
}

// MPE computes the Mean Percent Error of Eq. 2:
//
//	MPE = 100/M · Σ |(predicted_j − actual_j) / actual_j|
//
// It returns an error if the slices differ in length, are empty, or any
// actual value is zero (the metric is undefined there).
func MPE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, fmt.Errorf("stats: MPE length mismatch %d vs %d", len(predicted), len(actual))
	}
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for j, a := range actual {
		if a == 0 {
			return 0, fmt.Errorf("stats: MPE undefined, actual[%d] == 0", j)
		}
		s += math.Abs((predicted[j] - a) / a)
	}
	return 100 * s / float64(len(actual)), nil
}

// NRMSE computes the Normalized Root Mean Squared Error of Eq. 3. Per the
// paper's description it is "a ratio of Root Mean Squared Error and the
// interval of values that the actual data can take", expressed in percent:
//
//	NRMSE = 100 · sqrt( Σ (predicted_j − actual_j)² / M )
//	            / (actual_max − actual_min)
//
// It returns an error for degenerate inputs (mismatched or empty slices,
// or a zero actual range).
func NRMSE(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, fmt.Errorf("stats: NRMSE length mismatch %d vs %d", len(predicted), len(actual))
	}
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	s := 0.0
	for j, a := range actual {
		d := predicted[j] - a
		s += d * d
	}
	lo, hi := MinMax(actual)
	if hi == lo {
		return 0, errors.New("stats: NRMSE undefined, actual range is zero")
	}
	rms := math.Sqrt(s / float64(len(actual)))
	return 100 * rms / (hi - lo), nil
}

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation between order statistics (type-7, the R/NumPy default).
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 || q < 0 || q > 1 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 50th percentile of xs.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// FiveNum is a five-number summary plus mean, as used by the distribution
// plots of Figure 5 (median dashed, quartiles dotted).
type FiveNum struct {
	Min, Q1, Median, Q3, Max float64
	Mean                     float64
	N                        int
}

// Summarize computes the five-number summary of xs.
func Summarize(xs []float64) FiveNum {
	lo, hi := MinMax(xs)
	return FiveNum{
		Min:    lo,
		Q1:     Quantile(xs, 0.25),
		Median: Median(xs),
		Q3:     Quantile(xs, 0.75),
		Max:    hi,
		Mean:   Mean(xs),
		N:      len(xs),
	}
}

// String renders the summary in a compact single line.
func (f FiveNum) String() string {
	return fmt.Sprintf("n=%d min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g mean=%.4g",
		f.N, f.Min, f.Q1, f.Median, f.Q3, f.Max, f.Mean)
}

// FractionWithin returns the fraction of xs whose absolute value is at
// most bound. Used for the "±2 % / ±5 %" claims about Figure 5(b).
func FractionWithin(xs []float64, bound float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range xs {
		if math.Abs(v) <= bound {
			n++
		}
	}
	return float64(n) / float64(len(xs))
}

// MeanCI returns the mean of xs and the half-width of its normal-theory
// 95 % confidence interval. The paper reports that per-partition errors
// vary by at most a quarter percent; this is how we verify the analogous
// property of our partitions.
func MeanCI(xs []float64) (mean, halfWidth float64) {
	mean = Mean(xs)
	if len(xs) < 2 {
		return mean, math.NaN()
	}
	se := StdDev(xs) / math.Sqrt(float64(len(xs)))
	return mean, 1.96 * se
}
