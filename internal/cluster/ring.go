package cluster

import (
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over backends, placed by their names.
// Each backend owns a fixed number of virtual nodes, so keys spread
// evenly and a join or leave moves only the key ranges adjacent to the
// changed backend's virtual nodes — every other key keeps its owner
// across membership churn.
//
// A ring is immutable once built; membership changes build a new ring
// and swap the pointer, so lookups never take a lock.
type ring struct {
	points []ringPoint // sorted by hash
	names  []string    // distinct member names, sorted
}

// ringPoint is one virtual node: a position on the ring and the backend
// that owns the arc ending there.
type ringPoint struct {
	hash uint64
	b    *Backend
}

// defaultVirtualNodes balances placement smoothness against rebuild
// cost; 64 vnodes keeps the per-backend load imbalance under ~15% for
// small fleets.
const defaultVirtualNodes = 64

// buildRing constructs a ring over the given backends with vnodes
// virtual nodes each. Unnamed and duplicate-named backends are skipped.
func buildRing(backends []*Backend, vnodes int) *ring {
	if vnodes <= 0 {
		vnodes = defaultVirtualNodes
	}
	seen := make(map[string]bool, len(backends))
	r := &ring{}
	for _, b := range backends {
		if b.Name == "" || seen[b.Name] {
			continue
		}
		seen[b.Name] = true
		r.names = append(r.names, b.Name)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: hashKey(b.Name + "#" + strconv.Itoa(v)), b: b})
		}
	}
	sort.Strings(r.names)
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		return r.points[i].b.Name < r.points[j].b.Name
	})
	return r
}

// pick returns the replica set for a key: the first n distinct backends
// clockwise from the key's position. n is clamped to the member count.
func (r *ring) pick(key string, n int) []*Backend {
	if r == nil || len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.names) {
		n = len(r.names)
	}
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]*Backend, 0, n)
next:
	for range r.points {
		if i == len(r.points) {
			i = 0
		}
		b := r.points[i].b
		i++
		for _, picked := range out {
			if picked == b {
				continue next
			}
		}
		if out = append(out, b); len(out) == n {
			break
		}
	}
	return out
}

// members returns the sorted member names.
func (r *ring) members() []string {
	if r == nil {
		return nil
	}
	return r.names
}

// hashKey is FNV-1a over the key bytes, finished with a 64-bit
// avalanche mixer. Plain FNV clusters badly on a ring (virtual-node
// names differ in a trailing digit, and similar inputs land in similar
// arcs — measured ownership skew exceeded 7x without the finisher);
// the mixer spreads the points uniformly. Deterministic across
// processes (no per-process seed), which the stable-routing tests and
// multi-router deployments rely on.
func hashKey(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
