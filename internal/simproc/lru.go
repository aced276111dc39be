package simproc

import "fmt"

// lru is a set-associative cache with LRU replacement shared by several
// owners (co-located applications): the shared LLC the trace-driven path
// replays reference streams through. Per owner it counts accesses, misses
// and resident lines, what PAPI_L3_TCA / PAPI_L3_TCM expose per core.
// Non-power-of-two set counts, which sliced Xeon LLCs have, are indexed
// by modulo.
type lru struct {
	lines     []line // numSets × ways, one set after another
	ways      int
	numSets   uint64
	lineShift uint
	stamp     uint64
	owners    []ownerStats // indexed by owner id
}

type line struct {
	tag   uint64
	owner int
	valid bool
	lru   uint64 // last-touch stamp
}

// ownerStats aggregates one owner's activity in the shared cache.
type ownerStats struct {
	accesses  uint64
	misses    uint64
	occupancy int // lines currently resident
}

// missRatio returns misses/accesses, or 0 for an idle owner.
func (s ownerStats) missRatio() float64 {
	if s.accesses == 0 {
		return 0
	}
	return float64(s.misses) / float64(s.accesses)
}

// newLRU builds a cache of sizeBytes in lines of lineBytes (a power of
// two) grouped into sets of ways lines.
func newLRU(sizeBytes, lineBytes, ways int) (*lru, error) {
	if sizeBytes <= 0 || lineBytes <= 0 || ways <= 0 {
		return nil, fmt.Errorf("simproc: non-positive cache geometry %d B / %d B lines / %d ways", sizeBytes, lineBytes, ways)
	}
	if lineBytes&(lineBytes-1) != 0 {
		return nil, fmt.Errorf("simproc: cache line size %d not a power of two", lineBytes)
	}
	n := sizeBytes / lineBytes
	if n*lineBytes != sizeBytes || n%ways != 0 {
		return nil, fmt.Errorf("simproc: %d B is not a whole number of %d-way sets of %d B lines", sizeBytes, ways, lineBytes)
	}
	c := &lru{lines: make([]line, n), ways: ways, numSets: uint64(n / ways)}
	for s := lineBytes; s > 1; s >>= 1 {
		c.lineShift++
	}
	return c, nil
}

// stats returns (growing the table if needed) owner's record.
func (c *lru) stats(owner int) *ownerStats {
	for len(c.owners) <= owner {
		c.owners = append(c.owners, ownerStats{})
	}
	return &c.owners[owner]
}

// access simulates one access by owner to byte address addr and reports
// a hit. A miss installs the line in the set's invalid or least recently
// used way.
func (c *lru) access(owner int, addr uint64) bool {
	blk := addr >> c.lineShift
	si, tag := blk%c.numSets, blk/c.numSets
	st := c.stats(owner)
	st.accesses++
	c.stamp++
	set := c.lines[int(si)*c.ways : int(si+1)*c.ways]
	victim := 0
	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag && ln.owner == owner {
			ln.lru = c.stamp
			return true
		}
		if set[victim].valid && (!ln.valid || ln.lru < set[victim].lru) {
			victim = i
		}
	}
	st.misses++
	v := &set[victim]
	if v.valid {
		c.owners[v.owner].occupancy--
	}
	*v = line{tag: tag, owner: owner, valid: true, lru: c.stamp}
	st.occupancy++
	return false
}

// occupancyFraction returns the fraction of the cache's lines owner holds.
func (c *lru) occupancyFraction(owner int) float64 {
	if owner >= len(c.owners) {
		return 0
	}
	return float64(c.owners[owner].occupancy) / float64(len(c.lines))
}
