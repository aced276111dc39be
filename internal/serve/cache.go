package serve

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"colocmodel/internal/features"
)

// Cache is a sharded, size-bounded prediction cache. Scheduling loops
// query the same co-location scenarios over and over (a greedy packer
// re-evaluates every machine for every job), so memoising the model's
// forward pass turns the common case into a map hit. It sits in front
// of single predicts (POST /v1/predict, and observations that carry no
// prediction of their own) only: /v1/predict/batch and /v1/placements
// evaluate in batched model calls, where probing and filling the memo
// costs more per row than evaluating it. Sharding keeps
// lock contention negligible under concurrent traffic; each shard
// evicts in FIFO order once full, which is close enough to LRU for the
// highly repetitive key distribution scheduling produces.
type Cache struct {
	shards []cacheShard
	mask   uint64
}

// cacheShard is one lock domain. Entries are bounded by a fixed-size
// ring of keys: when the ring wraps, the key it overwrites is evicted.
type cacheShard struct {
	mu      sync.Mutex
	entries map[string]prediction
	ring    []string
	next    int
}

// prediction is a memoised model output.
type prediction struct {
	// Seconds is the predicted co-located execution time.
	Seconds float64
	// Slowdown is Seconds over the target's baseline.
	Slowdown float64
}

const cacheShardCount = 16 // power of two

// NewCache returns a cache bounded to roughly capacity entries spread
// over a fixed number of shards. Capacity below the shard count is
// raised to one entry per shard.
func NewCache(capacity int) *Cache {
	perShard := capacity / cacheShardCount
	if perShard < 1 {
		perShard = 1
	}
	c := &Cache{shards: make([]cacheShard, cacheShardCount), mask: cacheShardCount - 1}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]prediction, perShard)
		c.shards[i].ring = make([]string, perShard)
	}
	return c
}

// CanonicalScenario renders a scenario in the canonical form shared by
// the prediction cache and the cluster routing tier:
// "target|pstate|co1|co2|..." with the co-apps sorted. Co-runner order
// is irrelevant to the model's features (they are sums), so "canneal
// with [cg ep]" and "canneal with [ep cg]" canonicalise identically.
// The format is pinned by a cross-package test; changing it silently
// desynchronises the router's shard placement from the cache.
func CanonicalScenario(sc features.Scenario) string {
	co := make([]string, len(sc.CoApps))
	copy(co, sc.CoApps)
	sort.Strings(co)
	var b strings.Builder
	b.Grow(len(sc.Target) + 4 + 8*len(co))
	b.WriteString(sc.Target)
	b.WriteByte('|')
	b.WriteString(strconv.Itoa(sc.PState))
	for _, a := range co {
		b.WriteByte('|')
		b.WriteString(a)
	}
	return b.String()
}

// ScenarioKey canonicalises a scenario into a cache key:
// "model@generation|<CanonicalScenario>". The model name and registry
// generation prefix the key so a hot-swapped model never serves stale
// predictions. Exported so the cluster router shards on byte-identical
// keys — router and cache cannot drift on the format.
func ScenarioKey(model string, gen uint64, sc features.Scenario) string {
	var b strings.Builder
	canon := CanonicalScenario(sc)
	b.Grow(len(model) + 22 + len(canon))
	b.WriteString(model)
	b.WriteByte('@')
	b.WriteString(strconv.FormatUint(gen, 10))
	b.WriteByte('|')
	b.WriteString(canon)
	return b.String()
}

// keyScratch builds scenario keys into a reusable byte buffer so the
// cache-hit path allocates nothing: the sorted co-app scratch and the key
// bytes are pooled, and the shard lookup reads the bytes directly via the
// compiler's no-copy map[string(bytes)] access. A scratch produces the
// exact byte sequence ScenarioKey returns.
type keyScratch struct {
	buf []byte
	co  []string
}

// keyPool recycles key scratches across requests.
var keyPool = sync.Pool{New: func() any { return new(keyScratch) }}

// build canonicalises the scenario into k.buf (same form as ScenarioKey).
func (k *keyScratch) build(model string, gen uint64, sc features.Scenario) {
	k.co = append(k.co[:0], sc.CoApps...)
	slices.Sort(k.co)
	b := append(k.buf[:0], model...)
	b = append(b, '@')
	b = strconv.AppendUint(b, gen, 10)
	b = append(b, '|')
	b = append(b, sc.Target...)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(sc.PState), 10)
	for _, a := range k.co {
		b = append(b, '|')
		b = append(b, a...)
	}
	k.buf = b
}

// fnv1a hashes a key for shard selection: one body for the string keys
// Put stores and the raw key bytes Get probes with, so both land on the
// same shard.
func fnv1a[K string | []byte](s K) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}

func (c *Cache) shard(key string) *cacheShard {
	return &c.shards[fnv1a(key)&c.mask]
}

// Get returns the memoised prediction for key, if present. The key is
// raw bytes (a keyScratch buffer): the map access compiles to a
// no-allocation lookup, which keeps the cache-hit predict path free of
// per-request garbage.
func (c *Cache) Get(key []byte) (prediction, bool) {
	s := &c.shards[fnv1a(key)&c.mask]
	s.mu.Lock()
	p, ok := s.entries[string(key)]
	s.mu.Unlock()
	return p, ok
}

// Put memoises a prediction, evicting the oldest entry in the shard if
// it is full. The string key is materialised by the caller, on the miss
// path, where the model evaluation dominates anyway.
func (c *Cache) Put(key string, p prediction) {
	s := c.shard(key)
	s.mu.Lock()
	if _, exists := s.entries[key]; !exists {
		if old := s.ring[s.next]; old != "" {
			delete(s.entries, old)
		}
		s.ring[s.next] = key
		s.next = (s.next + 1) % len(s.ring)
	}
	s.entries[key] = p
	s.mu.Unlock()
}

// Len returns the current number of memoised predictions.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}
