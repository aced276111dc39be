package cluster

import (
	"fmt"
	"testing"
)

// testKeys generates a deterministic spread of scenario-shaped keys.
func testKeys(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("demo|app%d|%d|co%d", i%37, i%3, i%11)
	}
	return keys
}

// ringOf builds a 64-vnode ring over backends with the given names.
func ringOf(names ...string) *ring {
	backends := make([]*Backend, len(names))
	for i, n := range names {
		backends[i] = &Backend{Name: n}
	}
	return buildRing(backends, 64)
}

// owner is the name of the key's first replica.
func (r *ring) owner(key string) string { return r.pick(key, 1)[0].Name }

// TestRingStableUnderJoin pins the consistent-hashing contract: adding
// a backend moves ONLY the key ranges the new backend takes over —
// every key whose owner changes must now be owned by the newcomer, and
// no key moves between pre-existing backends.
func TestRingStableUnderJoin(t *testing.T) {
	keys := testKeys(2000)
	before := ringOf("a", "b", "c")
	after := ringOf("a", "b", "c", "d")

	moved := 0
	for _, k := range keys {
		was := before.owner(k)
		now := after.owner(k)
		if was != now {
			moved++
			if now != "d" {
				t.Fatalf("key %q moved %s -> %s on join of d: only ranges owned by the newcomer may move", k, was, now)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no keys moved to the new backend: ring ignores joins")
	}
	// A 4th member should take roughly a quarter of the space; allow a
	// wide band because 2000 keys x 64 vnodes is still a small sample.
	if frac := float64(moved) / float64(len(keys)); frac > 0.45 {
		t.Fatalf("join of 1 backend (of 4) moved %.0f%% of keys, want ~25%%", frac*100)
	}
}

// TestRingStableUnderLeave is the inverse contract: removing a backend
// moves only the keys it owned, and a leave followed by a re-join
// restores the exact original placement (rings are pure functions of
// membership, with no history).
func TestRingStableUnderLeave(t *testing.T) {
	keys := testKeys(2000)
	full := ringOf("a", "b", "c", "d")
	without := ringOf("a", "b", "c")

	for _, k := range keys {
		was := full.owner(k)
		now := without.owner(k)
		if was != "d" && was != now {
			t.Fatalf("key %q moved %s -> %s on leave of d: only the leaver's keys may move", k, was, now)
		}
		if was == "d" && now == "d" {
			t.Fatalf("key %q still owned by removed backend d", k)
		}
	}
	rejoined := ringOf("d", "c", "b", "a") // order must not matter
	for _, k := range keys {
		if full.owner(k) != rejoined.owner(k) {
			t.Fatalf("key %q owner differs after leave+rejoin: placement is not a pure function of membership", k)
		}
	}
}

// TestRingReplicaSets pins replica-set semantics: R distinct backends,
// owner first, clamped to the member count, deterministic across calls.
func TestRingReplicaSets(t *testing.T) {
	r := ringOf("a", "b", "c")
	for _, k := range testKeys(200) {
		set := r.pick(k, 2)
		if len(set) != 2 {
			t.Fatalf("pick(%q, 2) returned %d backends", k, len(set))
		}
		if set[0] == set[1] {
			t.Fatalf("pick(%q, 2) repeated backend %s", k, set[0].Name)
		}
		if owner := r.owner(k); owner != set[0].Name {
			t.Fatalf("pick(%q, 2)[0]=%s disagrees with owner %s", k, set[0].Name, owner)
		}
	}
	if got := r.pick("k", 10); len(got) != 3 {
		t.Fatalf("pick with n=10 over 3 members returned %d, want clamp to 3", len(got))
	}
	if got := buildRing(nil, 64).pick("k", 2); got != nil {
		t.Fatalf("empty ring pick returned %v, want nil", got)
	}
}

// TestRingBalance guards the virtual-node count: with 64 vnodes per
// backend no member should own a wildly disproportionate share.
func TestRingBalance(t *testing.T) {
	r := ringOf("a", "b", "c", "d")
	counts := map[string]int{}
	keys := testKeys(4000)
	for _, k := range keys {
		counts[r.owner(k)]++
	}
	for name, n := range counts {
		frac := float64(n) / float64(len(keys))
		if frac < 0.10 || frac > 0.45 {
			t.Fatalf("backend %s owns %.1f%% of keys (counts %v): placement too skewed", name, frac*100, counts)
		}
	}
}
