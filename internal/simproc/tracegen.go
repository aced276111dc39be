package simproc

import (
	"fmt"

	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// The trace-driven path feeds the shared LRU cache synthetic reference
// streams in place of the LLC access traces of the PARSEC and NAS
// applications. What the methodology depends on is not the instructions
// an application executes but the cache signature its references leave,
// so a stream with the locality of the application's memory-intensity
// class contends for the LLC as that application would.

// generator produces an endless stream of line-aligned byte addresses.
type generator interface {
	next() uint64
}

// traceLineBytes is the line size the generators lay footprints out in.
const traceLineBytes = 64

// traceGenerator returns a reference stream matched to a's locality class.
// base offsets its address space; seed fixes the stream.
func traceGenerator(a workload.App, base, seed uint64) (generator, error) {
	hotLines := int(a.MRC.WorkingSetBytes / traceLineBytes)
	if hotLines < 8 {
		hotLines = 8
	}
	// The trace path is used for qualitative validation at LLC scale;
	// working sets far beyond any LLC are capped so the hot set warms up
	// within a reasonable trace length (the excess footprint is carried
	// by the cold/streaming component instead).
	const maxHotLines = 1 << 18 // 16 MiB of 64 B lines
	if hotLines > maxHotLines {
		hotLines = maxHotLines
	}
	// Streaming-dominant applications (high floor relative to knee) are
	// modelled with a stride generator mixed over a reuse core; others
	// with a hot-set generator whose cold probability matches the
	// compulsory floor.
	sd, err := newHotSet(hotSetConfig{
		hotLines: hotLines,
		zipfS:    0.6 + 0.6/float64(a.Class), // tighter locality for lower classes
		coldProb: a.MRC.Floor,
		base:     base,
		seed:     seed,
	})
	if err != nil {
		return nil, err
	}
	if a.MRC.Floor > 0.15 {
		st, err := newStride(hotLines*4, 1, base+1<<44)
		if err != nil {
			return nil, err
		}
		return newMix(sd, st, 0.6, seed+1)
	}
	return sd, nil
}

// hotSetGen emulates a program with a skewed reference popularity profile
// (the independent reference model). It keeps a hot set of lines and on
// each step either references a brand-new line (with probability
// coldProb, a compulsory/streaming reference that replaces a random
// hot-set resident) or re-references a hot line chosen by Zipf rank.
//
// Under LRU a Zipf-popular hot set keeps its high-rank lines resident at
// small capacities and caches the tail as capacity grows, so zipfS shapes
// the stream's miss-ratio curve: high skew is tight locality, low skew
// capacity-hungry. Every step is O(log hotLines).
type hotSetGen struct {
	hot      []uint64
	zipf     *xrand.Zipf
	src      *xrand.Source
	coldProb float64
	nextNew  uint64
	base     uint64
}

// hotSetConfig parameterises newHotSet.
type hotSetConfig struct {
	hotLines int     // size of the hot working set, in lines
	zipfS    float64 // popularity skew over the hot set; larger is tighter
	coldProb float64 // probability a reference touches a never-seen line
	base     uint64  // address offset, disjoint per co-located stream
	seed     uint64
}

func newHotSet(cfg hotSetConfig) (*hotSetGen, error) {
	if cfg.hotLines <= 0 {
		return nil, fmt.Errorf("simproc: hot set must be positive, got %d lines", cfg.hotLines)
	}
	if cfg.coldProb < 0 || cfg.coldProb > 1 {
		return nil, fmt.Errorf("simproc: cold probability must be in [0,1], got %v", cfg.coldProb)
	}
	if cfg.zipfS < 0 {
		return nil, fmt.Errorf("simproc: Zipf skew must be non-negative, got %v", cfg.zipfS)
	}
	src := xrand.New(cfg.seed)
	return &hotSetGen{
		hot:      make([]uint64, 0, cfg.hotLines),
		zipf:     xrand.NewZipf(src.Split(), cfg.zipfS, cfg.hotLines),
		src:      src,
		coldProb: cfg.coldProb,
		base:     cfg.base,
	}, nil
}

func (g *hotSetGen) next() uint64 {
	if len(g.hot) < cap(g.hot) || g.src.Bool(g.coldProb) {
		// Touch a brand-new line: compulsory reference.
		addr := g.base + g.nextNew*traceLineBytes
		g.nextNew++
		if len(g.hot) < cap(g.hot) {
			g.hot = append(g.hot, addr)
		} else {
			g.hot[g.src.Intn(len(g.hot))] = addr
		}
		return addr
	}
	return g.hot[g.zipf.Next()]
}

// strideGen emulates a streaming application: it walks footprint lines
// with a fixed stride, wrapping around, so it misses in any cache smaller
// than its footprint.
type strideGen struct {
	footprint, stride, pos, base uint64
}

func newStride(footprintLines, strideLines int, base uint64) (*strideGen, error) {
	if footprintLines <= 0 || strideLines <= 0 {
		return nil, fmt.Errorf("simproc: stride footprint and step must be positive, got %d, %d", footprintLines, strideLines)
	}
	return &strideGen{footprint: uint64(footprintLines), stride: uint64(strideLines), base: base}, nil
}

func (g *strideGen) next() uint64 {
	addr := g.base + (g.pos%g.footprint)*traceLineBytes
	g.pos += g.stride
	return addr
}

// mixGen draws each reference from a with probability probA, else from
// b: an application with interleaved streaming and reuse-heavy parts.
type mixGen struct {
	a, b  generator
	probA float64
	src   *xrand.Source
}

func newMix(a, b generator, probA float64, seed uint64) (*mixGen, error) {
	if a == nil || b == nil {
		return nil, fmt.Errorf("simproc: a mix needs two generators")
	}
	if probA < 0 || probA > 1 {
		return nil, fmt.Errorf("simproc: mix probability must be in [0,1], got %v", probA)
	}
	return &mixGen{a: a, b: b, probA: probA, src: xrand.New(seed)}, nil
}

func (g *mixGen) next() uint64 {
	if g.src.Bool(g.probA) {
		return g.a.next()
	}
	return g.b.next()
}

// interleave merges streams by weighted round robin (weights[i]
// references from gens[i] per round): the memory system's view of
// co-located applications.
type interleave struct {
	gens    []generator
	weights []int
	cur     int
	emitted int
}

func newInterleave(gens []generator, weights []int) (*interleave, error) {
	if len(gens) == 0 || len(gens) != len(weights) {
		return nil, fmt.Errorf("simproc: interleave needs matching non-empty generators and weights")
	}
	for i, w := range weights {
		if w <= 0 || gens[i] == nil {
			return nil, fmt.Errorf("simproc: interleave stream %d needs a generator and a positive weight, got %d", i, w)
		}
	}
	return &interleave{gens: gens, weights: weights}, nil
}

// next returns the index of the stream the next reference comes from,
// and the reference.
func (iv *interleave) next() (owner int, addr uint64) {
	owner = iv.cur
	addr = iv.gens[owner].next()
	iv.emitted++
	if iv.emitted >= iv.weights[iv.cur] {
		iv.emitted = 0
		iv.cur = (iv.cur + 1) % len(iv.gens)
	}
	return owner, addr
}
