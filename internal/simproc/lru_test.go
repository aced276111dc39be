package simproc

import (
	"fmt"
	"testing"
	"testing/quick"

	"colocmodel/internal/xrand"
)

func mustLRU(t testing.TB, sizeBytes, lineBytes, ways int) *lru {
	t.Helper()
	c, err := newLRU(sizeBytes, lineBytes, ways)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// small is a 64-line, 4-way, 16-set cache.
func small(t testing.TB) *lru { return mustLRU(t, 4096, 64, 4) }

// checkInvariants verifies that per-owner occupancy matches the valid
// lines each owner holds and that no owner misses more than it accesses.
func checkInvariants(c *lru) error {
	occ := make([]int, len(c.owners))
	for _, ln := range c.lines {
		if ln.valid {
			occ[ln.owner]++
		}
	}
	for id, st := range c.owners {
		if st.misses > st.accesses {
			return fmt.Errorf("owner %d has misses %d > accesses %d", id, st.misses, st.accesses)
		}
		if st.occupancy != occ[id] {
			return fmt.Errorf("owner %d tracked occupancy %d != actual %d", id, st.occupancy, occ[id])
		}
	}
	return nil
}

func TestLRUGeometryValidation(t *testing.T) {
	bad := [][3]int{
		{0, 64, 4},
		{4096, 48, 4},      // line not power of two
		{4096, 64, 3},      // 64 lines not divisible by 3 ways
		{4096 + 64, 64, 4}, // 65 lines not divisible by 4 ways
		{4096, 64, -1},     // negative ways
		{100, 64, 1},       // size not multiple of line
	}
	for i, g := range bad {
		if _, err := newLRU(g[0], g[1], g[2]); err == nil {
			t.Fatalf("bad geometry %d accepted: %v", i, g)
		}
	}
	// Non-power-of-two set counts are valid (sliced LLCs): 48 lines, 4
	// ways -> 12 sets.
	if c, err := newLRU(64*48, 64, 4); err != nil || c.numSets != 12 {
		t.Fatalf("12-set geometry: %v", err)
	}
	// Both Table IV LLCs are whole numbers of sets.
	for _, s := range Machines() {
		if _, err := newLRU(int(s.LLCBytes), s.Mem.LineBytes, s.LLCWays); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := small(t)
	if c.access(0, 0x1000) {
		t.Fatal("cold access hit")
	}
	if !c.access(0, 0x1000) {
		t.Fatal("second access missed")
	}
	// Same line, different offset: still a hit.
	if !c.access(0, 0x103f) {
		t.Fatal("same-line access missed")
	}
	if st := c.owners[0]; st.accesses != 3 || st.misses != 1 {
		t.Fatalf("stats %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// 1 set, 2 ways: direct test of LRU.
	c := mustLRU(t, 128, 64, 2)
	if c.numSets != 1 {
		t.Fatalf("want 1 set, got %d", c.numSets)
	}
	c.access(0, 0*64) // A
	c.access(0, 1*64) // B
	c.access(0, 0*64) // touch A -> B is LRU
	c.access(0, 2*64) // C evicts B
	if !c.access(0, 0*64) {
		t.Fatal("A was evicted, want B")
	}
	if c.access(0, 1*64) {
		t.Fatal("B still resident, want evicted")
	}
}

func TestWorkingSetFitsNoCapacityMisses(t *testing.T) {
	c := small(t)
	// 32 lines touched repeatedly in a 64-line cache: after warmup, no
	// misses.
	for round := 0; round < 10; round++ {
		for i := uint64(0); i < 32; i++ {
			c.access(0, i*64)
		}
	}
	if m := c.owners[0].misses; m != 32 {
		t.Fatalf("want 32 compulsory misses, got %d", m)
	}
}

func TestThrashingWorkingSet(t *testing.T) {
	// Sequential scan of 2x capacity with LRU always misses after warmup.
	c := mustLRU(t, 64*8, 64, 8)
	for round := 0; round < 4; round++ {
		for i := uint64(0); i < 16; i++ {
			c.access(0, i*64)
		}
	}
	if got := c.owners[0].missRatio(); got != 1 {
		t.Fatalf("thrash miss ratio = %v, want 1", got)
	}
}

func TestSharedOwnersContend(t *testing.T) {
	c := small(t)
	// Owner 0 alone: working set of 48 lines fits in 64.
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < 48; i++ {
			c.access(0, i*64)
		}
	}
	soloMR := c.owners[0].missRatio()
	// Now share with owner 1 streaming over its own 48 lines.
	c2 := small(t)
	for round := 0; round < 20; round++ {
		for i := uint64(0); i < 48; i++ {
			c2.access(0, i*64)
			c2.access(1, (1<<30)+i*64)
		}
	}
	sharedMR := c2.owners[0].missRatio()
	if sharedMR <= soloMR {
		t.Fatalf("co-location did not raise miss ratio: solo %v shared %v", soloMR, sharedMR)
	}
	if err := checkInvariants(c2); err != nil {
		t.Fatal(err)
	}
}

func TestOccupancyFraction(t *testing.T) {
	c := small(t)
	c.access(3, 0)
	c.access(5, 1<<20)
	if got := c.occupancyFraction(3); got != 1.0/64 {
		t.Fatalf("owner 3 holds %v of the cache, want one line of 64", got)
	}
	if c.occupancyFraction(4) != 0 || c.occupancyFraction(99) != 0 {
		t.Fatal("phantom owner has occupancy")
	}
}

func TestLRUInvariantsProperty(t *testing.T) {
	f := func(seed uint16) bool {
		c, err := newLRU(2048, 64, 4)
		if err != nil {
			return false
		}
		src := xrand.New(uint64(seed))
		z := xrand.NewZipf(src, 0.9, 256)
		for i := 0; i < 5000; i++ {
			owner := src.Intn(3)
			c.access(owner, uint64(z.Next())*64+uint64(owner)<<40)
		}
		return checkInvariants(c) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
