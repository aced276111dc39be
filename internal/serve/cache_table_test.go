package serve

import (
	"fmt"
	"testing"

	"colocmodel/internal/features"
)

// TestScenarioKeyCanonicalisation is the table-driven contract of the
// cache key: co-runner order never matters (model features are sums),
// duplicates are preserved (two copies of cg load the machine more than
// one), and every other scenario dimension — model, generation, target,
// P-state, multiplicity — must separate keys.
func TestScenarioKeyCanonicalisation(t *testing.T) {
	type entry struct {
		model string
		gen   uint64
		sc    features.Scenario
	}
	cases := []struct {
		name string
		a, b entry
		same bool
	}{
		{
			name: "co-runner order is canonicalised",
			a:    entry{"m", 1, features.Scenario{Target: "canneal", CoApps: []string{"cg", "ep"}, PState: 0}},
			b:    entry{"m", 1, features.Scenario{Target: "canneal", CoApps: []string{"ep", "cg"}, PState: 0}},
			same: true,
		},
		{
			name: "order invariance holds for longer sets",
			a:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep", "cg", "ep"}, PState: 1}},
			b:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep", "ep", "cg"}, PState: 1}},
			same: true,
		},
		{
			name: "duplicate co-runners are not collapsed",
			a:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep", "ep"}, PState: 0}},
			b:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			same: false,
		},
		{
			name: "solo differs from any co-location",
			a:    entry{"m", 1, features.Scenario{Target: "cg", PState: 0}},
			b:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"cg"}, PState: 0}},
			same: false,
		},
		{
			name: "model name separates keys",
			a:    entry{"m1", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			b:    entry{"m2", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			same: false,
		},
		{
			name: "generation separates keys (hot swap invalidates)",
			a:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			b:    entry{"m", 2, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			same: false,
		},
		{
			name: "target separates keys",
			a:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			b:    entry{"m", 1, features.Scenario{Target: "ep", CoApps: []string{"ep"}, PState: 0}},
			same: false,
		},
		{
			name: "P-state separates keys",
			a:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			b:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 1}},
			same: false,
		},
		{
			name: "target/co-app confusion is impossible",
			a:    entry{"m", 1, features.Scenario{Target: "cg", CoApps: []string{"ep"}, PState: 0}},
			b:    entry{"m", 1, features.Scenario{Target: "ep", CoApps: []string{"cg"}, PState: 0}},
			same: false,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			ka := ScenarioKey(c.a.model, c.a.gen, c.a.sc)
			kb := ScenarioKey(c.b.model, c.b.gen, c.b.sc)
			if (ka == kb) != c.same {
				t.Fatalf("ScenarioKey equality = %v, want %v\n  a: %q\n  b: %q",
					ka == kb, c.same, ka, kb)
			}
		})
	}
}

// TestScenarioKeyDoesNotMutateScenario guards the canonicalisation
// implementation detail that matters to callers: sorting happens on a
// copy, never on the caller's co-app slice.
func TestScenarioKeyDoesNotMutateScenario(t *testing.T) {
	co := []string{"ep", "cg", "canneal"}
	ScenarioKey("m", 1, features.Scenario{Target: "cg", CoApps: co})
	if co[0] != "ep" || co[1] != "cg" || co[2] != "canneal" {
		t.Fatalf("ScenarioKey reordered the caller's co-apps: %v", co)
	}
}

// shardKeys returns n distinct keys that all hash into the same shard
// as probe, so eviction tests can fill exactly one lock domain.
func shardKeys(t *testing.T, c *Cache, probe string, n int) []string {
	t.Helper()
	target := c.shard(probe)
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		k := fmt.Sprintf("m@1|app%d|0", i)
		if c.shard(k) == target {
			keys = append(keys, k)
		}
		if i > 1<<20 {
			t.Fatal("could not find enough keys for one shard")
		}
	}
	return keys
}

// TestCacheEvictsFIFOAtShardCapacity pins the eviction contract:
// NewCache(16) leaves one slot per shard, so a second distinct key in
// the same shard must evict the first, and re-putting an existing key
// updates in place without consuming a ring slot.
func TestCacheEvictsFIFOAtShardCapacity(t *testing.T) {
	c := NewCache(16) // one entry per shard
	keys := shardKeys(t, c, "probe", 3)
	k1, k2, k3 := keys[0], keys[1], keys[2]

	c.Put(k1, prediction{Seconds: 1})
	if p, ok := c.Get([]byte(k1)); !ok || p.Seconds != 1 {
		t.Fatalf("k1 missing right after Put: %v %v", p, ok)
	}

	// Updating the resident key must not evict it.
	c.Put(k1, prediction{Seconds: 10})
	if p, ok := c.Get([]byte(k1)); !ok || p.Seconds != 10 {
		t.Fatalf("update lost: %v %v", p, ok)
	}

	// A second key in the same one-slot shard evicts the first.
	c.Put(k2, prediction{Seconds: 2})
	if _, ok := c.Get([]byte(k1)); ok {
		t.Fatal("k1 survived past shard capacity")
	}
	if p, ok := c.Get([]byte(k2)); !ok || p.Seconds != 2 {
		t.Fatalf("k2 missing after eviction: %v %v", p, ok)
	}

	// FIFO continues: k3 evicts k2.
	c.Put(k3, prediction{Seconds: 3})
	if _, ok := c.Get([]byte(k2)); ok {
		t.Fatal("k2 survived past shard capacity")
	}
	if _, ok := c.Get([]byte(k3)); !ok {
		t.Fatal("k3 missing")
	}
}

// TestCacheCapacityBound fills the cache far past its configured
// capacity and checks the bound holds while keys in other shards stay
// unaffected by one shard's evictions.
func TestCacheCapacityBound(t *testing.T) {
	const capacity = 64 // 4 per shard
	c := NewCache(capacity)
	for i := 0; i < capacity*10; i++ {
		c.Put(fmt.Sprintf("m@1|t%d|0", i), prediction{Seconds: float64(i)})
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	if n := c.Len(); n < capacity/2 {
		t.Fatalf("cache holds only %d entries after %d puts; shards underfilled", n, capacity*10)
	}
}

// TestCacheTinyCapacityRoundsUp guards the documented floor: capacities
// below the shard count still give every shard one usable slot.
func TestCacheTinyCapacityRoundsUp(t *testing.T) {
	c := NewCache(1)
	c.Put("a", prediction{Seconds: 1})
	if _, ok := c.Get([]byte("a")); !ok {
		t.Fatal("single-slot shard cannot hold an entry")
	}
}
