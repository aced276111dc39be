package simproc

import (
	"testing"
	"testing/quick"

	"colocmodel/internal/workload"
)

// missRatio replays n references of g through c as owner 0.
func missRatio(c *lru, g generator, n int) float64 {
	for i := 0; i < n; i++ {
		c.access(0, g.next())
	}
	return c.owners[0].missRatio()
}

// distinctLines counts the distinct addresses among n references of g.
func distinctLines(g generator, n int) int {
	seen := map[uint64]bool{}
	for i := 0; i < n; i++ {
		seen[g.next()] = true
	}
	return len(seen)
}

func TestHotSetConfigValidation(t *testing.T) {
	bad := []hotSetConfig{
		{hotLines: 0, zipfS: 1, coldProb: 0.1},
		{hotLines: 10, zipfS: -1, coldProb: 0.1},
		{hotLines: 10, zipfS: 1, coldProb: 1.5},
	}
	for i, cfg := range bad {
		if _, err := newHotSet(cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := newHotSet(hotSetConfig{hotLines: 10, zipfS: 1, coldProb: 0.1}); err != nil {
		t.Fatal(err)
	}
}

func TestHotSetDeterministic(t *testing.T) {
	cfg := hotSetConfig{hotLines: 64, zipfS: 0.9, coldProb: 0.05, seed: 9}
	a, _ := newHotSet(cfg)
	b, _ := newHotSet(cfg)
	for i := 0; i < 10000; i++ {
		if a.next() != b.next() {
			t.Fatalf("streams diverged at %d", i)
		}
	}
}

func TestHotSetLocality(t *testing.T) {
	// With tight locality (high Zipf skew, low cold prob) a cache holding
	// the hot set should hit nearly always; a tiny cache should miss more.
	g, err := newHotSet(hotSetConfig{hotLines: 128, zipfS: 1.2, coldProb: 0.01, seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mr := missRatio(mustLRU(t, 1<<20, 64, 16), g, 100000); mr > 0.05 {
		t.Fatalf("hot set in big cache missing too much: %v", mr)
	}
	g2, _ := newHotSet(hotSetConfig{hotLines: 4096, zipfS: 0.2, coldProb: 0.05, seed: 2})
	if mr := missRatio(mustLRU(t, 16<<10, 64, 4), g2, 100000); mr < 0.2 {
		t.Fatalf("loose locality in small cache hitting too much: %v", mr)
	}
}

func TestHotSetFootprintGrows(t *testing.T) {
	g, _ := newHotSet(hotSetConfig{hotLines: 32, zipfS: 1, coldProb: 0.5, seed: 3})
	if n := distinctLines(g, 1000); n < 32 {
		t.Fatalf("footprint %d never filled hot set", n)
	}
}

func TestHotSetBaseOffsets(t *testing.T) {
	a, _ := newHotSet(hotSetConfig{hotLines: 16, zipfS: 1, coldProb: 0.1, base: 0, seed: 4})
	b, _ := newHotSet(hotSetConfig{hotLines: 16, zipfS: 1, coldProb: 0.1, base: 1 << 40, seed: 4})
	for i := 0; i < 100; i++ {
		if a.next() >= 1<<40 {
			t.Fatal("base-0 generator escaped its region")
		}
		if b.next() < 1<<40 {
			t.Fatal("offset generator below its base")
		}
	}
}

func TestStrideGenWrapsAndStreams(t *testing.T) {
	g, err := newStride(8, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := distinctLines(g, 16); n != 8 {
		t.Fatalf("stride footprint %d, want 8", n)
	}
	if _, err := newStride(0, 1, 0); err == nil {
		t.Fatal("zero footprint accepted")
	}
	if _, err := newStride(4, 0, 0); err == nil {
		t.Fatal("zero stride accepted")
	}
}

func TestStrideStreamingMissesInSmallCache(t *testing.T) {
	g, _ := newStride(1024, 1, 0)
	if mr := missRatio(mustLRU(t, 16<<10, 64, 4), g, 100000); mr < 0.99 {
		t.Fatalf("streaming workload miss ratio %v, want ~1", mr)
	}
}

func TestMixGen(t *testing.T) {
	a, _ := newStride(4, 1, 0)
	b, _ := newStride(4, 1, 1<<30)
	g, err := newMix(a, b, 0.5, 6)
	if err != nil {
		t.Fatal(err)
	}
	fromA := 0
	for i := 0; i < 10000; i++ {
		if g.next() < 1<<30 {
			fromA++
		}
	}
	if fromA < 4000 || fromA > 6000 {
		t.Fatalf("mix imbalance: %d from A of 10000", fromA)
	}
	if _, err := newMix(nil, b, 0.5, 0); err == nil {
		t.Fatal("nil generator accepted")
	}
	if _, err := newMix(a, b, 2, 0); err == nil {
		t.Fatal("bad prob accepted")
	}
}

func TestInterleaveWeights(t *testing.T) {
	a, _ := newStride(4, 1, 0)
	b, _ := newStride(4, 1, 1<<30)
	iv, err := newInterleave([]generator{a, b}, []int{3, 1})
	if err != nil {
		t.Fatal(err)
	}
	counts := [2]int{}
	for i := 0; i < 400; i++ {
		owner, _ := iv.next()
		counts[owner]++
	}
	if counts[0] != 300 || counts[1] != 100 {
		t.Fatalf("weighted interleave counts %v, want [300 100]", counts)
	}
}

func TestInterleaveValidation(t *testing.T) {
	a, _ := newStride(4, 1, 0)
	if _, err := newInterleave(nil, nil); err == nil {
		t.Fatal("empty accepted")
	}
	if _, err := newInterleave([]generator{a}, []int{0}); err == nil {
		t.Fatal("zero weight accepted")
	}
	if _, err := newInterleave([]generator{nil}, []int{1}); err == nil {
		t.Fatal("nil gen accepted")
	}
	if _, err := newInterleave([]generator{a}, []int{1, 2}); err == nil {
		t.Fatal("mismatched lengths accepted")
	}
}

// Property: all generated addresses are line-aligned and within the
// generator's address region.
func TestGeneratorsAlignedProperty(t *testing.T) {
	f := func(seed uint16, hotRaw uint8) bool {
		hot := int(hotRaw%200) + 8
		g, err := newHotSet(hotSetConfig{
			hotLines: hot, zipfS: 0.8, coldProb: 0.02,
			base: 1 << 32, seed: uint64(seed),
		})
		if err != nil {
			return false
		}
		for i := 0; i < 2000; i++ {
			a := g.next()
			if a < 1<<32 || a%traceLineBytes != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher coldProb yields a larger footprint for the same length.
func TestColdProbFootprintProperty(t *testing.T) {
	lo, _ := newHotSet(hotSetConfig{hotLines: 64, zipfS: 1, coldProb: 0.01, seed: 7})
	hi, _ := newHotSet(hotSetConfig{hotLines: 64, zipfS: 1, coldProb: 0.5, seed: 7})
	if nHi, nLo := distinctLines(hi, 20000), distinctLines(lo, 20000); nHi <= nLo {
		t.Fatalf("footprints: cold=0.5 %d <= cold=0.01 %d", nHi, nLo)
	}
}

func TestTraceGeneratorsConstructible(t *testing.T) {
	for _, a := range workload.All() {
		g, err := traceGenerator(a, 0, 1)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for i := 0; i < 100; i++ {
			g.next()
		}
	}
}

func TestTraceGeneratorMatchesClass(t *testing.T) {
	// A Class I generator must miss far more than a Class IV generator
	// in the same cache.
	mr := func(name string) float64 {
		g, err := traceGenerator(app(t, name), 0, 7)
		if err != nil {
			t.Fatal(err)
		}
		return missRatio(mustLRU(t, 1<<20, 64, 16), g, 300000)
	}
	if mrCg, mrEp := mr("cg"), mr("ep"); mrCg < 2*mrEp {
		t.Fatalf("trace miss ratios do not reflect classes: cg %v, ep %v", mrCg, mrEp)
	}
}
