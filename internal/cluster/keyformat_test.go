package cluster

import (
	"testing"

	"colocmodel/internal/features"
	"colocmodel/internal/serve"
)

// TestCanonicalScenarioFormatPin pins the canonical scenario format from
// OUTSIDE the serve package. The router's ring placement is derived
// from serve.CanonicalScenario; if serve ever changes the byte layout,
// every scenario silently moves to another owner.
// This test turns that silent drift into a loud one.
func TestCanonicalScenarioFormatPin(t *testing.T) {
	cases := []struct {
		sc        features.Scenario
		wantCanon string
	}{
		{features.Scenario{Target: "canneal", CoApps: []string{"ep", "cg"}, PState: 2}, "canneal|2|cg|ep"},
		{features.Scenario{Target: "cg", CoApps: nil, PState: 0}, "cg|0"},
		{features.Scenario{Target: "mg", CoApps: []string{"mg", "mg", "cg"}, PState: 1}, "mg|1|cg|mg|mg"},
	}
	for _, tc := range cases {
		if got := serve.CanonicalScenario(tc.sc); got != tc.wantCanon {
			t.Errorf("CanonicalScenario(%+v) = %q, want %q", tc.sc, got, tc.wantCanon)
		}
	}
	// The routing key prefixes the model name and deliberately omits the
	// generation (promotions must not move keys).
	sc := cases[0].sc
	if got, want := routeKey("m6", sc), "m6|canneal|2|cg|ep"; got != want {
		t.Errorf("routeKey = %q, want %q", got, want)
	}
	// Co-app order must not matter (the features are sums).
	perm := features.Scenario{Target: "canneal", CoApps: []string{"cg", "ep"}, PState: 2}
	if routeKey("m6", sc) != routeKey("m6", perm) {
		t.Error("routeKey differs across co-app permutations; ring affinity lost")
	}
	// CanonicalScenario must not mutate the caller's slice.
	co := []string{"ep", "cg"}
	serve.CanonicalScenario(features.Scenario{Target: "x", CoApps: co})
	if co[0] != "ep" || co[1] != "cg" {
		t.Errorf("CanonicalScenario reordered the caller's co-app slice: %v", co)
	}
}
