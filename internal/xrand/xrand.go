// Package xrand provides deterministic, splittable pseudo-random number
// generation and the distributions used throughout the simulator and the
// modeling pipeline.
//
// Everything in this repository that is stochastic — synthetic reference
// traces, measurement noise, bootstrap partitioning, neural-network weight
// initialisation — draws from an xrand.Source constructed from an explicit
// seed, so a full experiment pipeline is reproducible bit-for-bit.
//
// The core generator is xoshiro256** (Blackman & Vigna), seeded through
// SplitMix64 so that nearby integer seeds produce uncorrelated streams.
package xrand

import "math"

// Source is a deterministic pseudo-random number generator implementing
// xoshiro256**. The zero value is not valid; use New or Split.
type Source struct {
	s0, s1, s2, s3 uint64
}

// splitmix64 advances x by the SplitMix64 sequence and returns the next
// output. It is used only for seeding.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Source seeded from seed. Distinct seeds, including
// consecutive integers, yield statistically independent streams.
func New(seed uint64) *Source {
	s := &Source{}
	sm := seed
	s.s0 = splitmix64(&sm)
	s.s1 = splitmix64(&sm)
	s.s2 = splitmix64(&sm)
	s.s3 = splitmix64(&sm)
	// Guard against the all-zero state, which is a fixed point.
	if s.s0|s.s1|s.s2|s.s3 == 0 {
		s.s0 = 1
	}
	return s
}

// Split derives an independent child generator from s. The parent stream
// advances by one step; the child is seeded from the drawn value. Splitting
// lets one experiment seed fan out to per-component streams without the
// components perturbing each other's sequences.
func (s *Source) Split() *Source {
	return New(s.Uint64())
}

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 uniformly distributed bits.
func (s *Source) Uint64() uint64 {
	result := rotl(s.s1*5, 7) * 9
	t := s.s1 << 17
	s.s2 ^= s.s0
	s.s3 ^= s.s1
	s.s1 ^= s.s2
	s.s0 ^= s.s3
	s.s2 ^= t
	s.s3 = rotl(s.s3, 45)
	return result
}

// Float64 returns a uniformly distributed value in [0, 1).
func (s *Source) Float64() float64 {
	// 53 random mantissa bits scaled into [0,1).
	return float64(s.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniformly distributed integer in [0, n). It panics if
// n <= 0.
func (s *Source) Intn(n int) int {
	if n <= 0 {
		panic("xrand: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation with rejection to
	// remove modulo bias.
	bound := uint64(n)
	for {
		v := s.Uint64()
		hi, lo := mul64(v, bound)
		if lo >= bound || lo >= (-bound)%bound {
			return int(hi)
		}
	}
}

// mul64 returns the 128-bit product of a and b as (hi, lo).
func mul64(a, b uint64) (hi, lo uint64) {
	const mask = 0xffffffff
	a0, a1 := a&mask, a>>32
	b0, b1 := b&mask, b>>32
	w0 := a0 * b0
	t := a1*b0 + w0>>32
	w1 := t & mask
	w2 := t >> 32
	w1 += a0 * b1
	hi = a1*b1 + w2 + w1>>32
	lo = a * b
	return hi, lo
}

// Bool returns true with probability p.
func (s *Source) Bool(p float64) bool {
	return s.Float64() < p
}

// Normal returns a normally distributed value with the given mean and
// standard deviation, generated by the Marsaglia polar method.
func (s *Source) Normal(mean, stddev float64) float64 {
	for {
		u := 2*s.Float64() - 1
		v := 2*s.Float64() - 1
		q := u*u + v*v
		if q == 0 || q >= 1 {
			continue
		}
		return mean + stddev*u*math.Sqrt(-2*math.Log(q)/q)
	}
}

// LogNormal returns exp(N(mu, sigma)). mu and sigma parameterise the
// underlying normal, not the resulting distribution's mean.
func (s *Source) LogNormal(mu, sigma float64) float64 {
	return math.Exp(s.Normal(mu, sigma))
}

// Perm returns a uniformly random permutation of [0, n).
func (s *Source) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	// Fisher–Yates.
	for i := n - 1; i > 0; i-- {
		j := s.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
