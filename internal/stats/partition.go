package stats

import (
	"fmt"

	"colocmodel/internal/xrand"
)

// Partition is one train/test split of sample indices produced by the
// repeated random sub-sampling validation protocol of Section IV-B4.
type Partition struct {
	Train []int
	Test  []int
}

// Partitioner generates repeated random sub-sampling partitions: each call
// to Next withholds a fixed fraction of the samples for testing, selected
// uniformly at random without replacement, per the bootstrapping approach
// of Efron & Tibshirani cited by the paper.
type Partitioner struct {
	n        int
	testFrac float64
	src      *xrand.Source
}

// NewPartitioner returns a partitioner over n samples that withholds
// testFrac of them (the paper uses 0.30) in each partition.
func NewPartitioner(n int, testFrac float64, src *xrand.Source) (*Partitioner, error) {
	if n < 2 {
		return nil, fmt.Errorf("stats: partitioner requires at least 2 samples, got %d", n)
	}
	if !(testFrac > 0 && testFrac < 1) { // NaN fails too
		return nil, fmt.Errorf("stats: test fraction must be in (0,1), got %v", testFrac)
	}
	nTest := int(float64(n) * testFrac)
	if nTest == 0 || nTest == n {
		return nil, fmt.Errorf("stats: test fraction %v leaves an empty split for n=%d", testFrac, n)
	}
	return &Partitioner{n: n, testFrac: testFrac, src: src}, nil
}

// Next draws a fresh random partition.
func (p *Partitioner) Next() Partition {
	perm := p.src.Perm(p.n)
	nTest := int(float64(p.n) * p.testFrac)
	test := append([]int(nil), perm[:nTest]...)
	train := append([]int(nil), perm[nTest:]...)
	return Partition{Train: train, Test: test}
}

// Partitions draws k independent partitions (the paper uses k = 100).
func (p *Partitioner) Partitions(k int) []Partition {
	out := make([]Partition, k)
	for i := range out {
		out[i] = p.Next()
	}
	return out
}
