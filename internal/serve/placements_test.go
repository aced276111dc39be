package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"colocmodel/internal/sched"
	"colocmodel/internal/simproc"
)

// placementsBody builds the canonical test request: a 4-machine fleet
// with 12 pending apps and a seeded local search.
func placementsBody() PlacementsRequest {
	return PlacementsRequest{
		Machines:    []PlacementMachineRequest{{Count: 4}},
		Apps:        []string{"cg", "canneal", "ep", "cg", "canneal", "ep", "cg", "canneal", "ep", "cg", "canneal", "ep"},
		MaxSlowdown: 2.5,
		Seed:        11,
		Beam:        12,
	}
}

func TestPlacementsEndpoint(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	w := postJSON(t, s.Handler(), "/v1/placements", placementsBody())
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[PlacementsResponse](t, w)
	if resp.Model != "primary" || resp.Objective != "slowdown" {
		t.Fatalf("identity fields wrong: %+v", resp)
	}
	if resp.Plan == nil || len(resp.Plan.Apps) != 12 {
		t.Fatalf("plan does not cover the 12 apps: %+v", resp.Plan)
	}
	if len(resp.Plan.Assignments) != 4 || len(resp.Plan.PStates) != 4 {
		t.Fatalf("plan does not describe the 4-machine fleet: %+v", resp.Plan)
	}
	if resp.Search.Scenarios == 0 {
		t.Fatal("search predicted no scenarios")
	}
	if got := w.Header().Get("X-Request-ID"); got == "" {
		t.Fatal("missing X-Request-ID")
	}
}

func TestPlacementsDeterministicAcrossRequests(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	var first []byte
	for i := 0; i < 3; i++ {
		w := postJSON(t, s.Handler(), "/v1/placements", placementsBody())
		if w.Code != http.StatusOK {
			t.Fatalf("status %d: %s", w.Code, w.Body.String())
		}
		if i == 0 {
			first = append([]byte(nil), w.Body.Bytes()...)
			continue
		}
		if !bytes.Equal(w.Body.Bytes(), first) {
			t.Fatalf("request %d diverged:\n%s\nwant:\n%s", i, w.Body.Bytes(), first)
		}
	}
}

func TestPlacementsStreamingMonotone(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := placementsBody()
	body.Machines = []PlacementMachineRequest{{Count: 8}}
	body.Apps = append(body.Apps, body.Apps...) // 24 apps: room to improve
	body.Stream = true
	w := postJSON(t, s.Handler(), "/v1/placements", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("content type %q", ct)
	}
	lines := strings.Split(strings.TrimSpace(w.Body.String()), "\n")
	// The acceptance bar: at least two monotonically improving
	// incremental plans before the final line (greedy plan + >=1
	// improvement + final, and improvements are strictly ordered).
	if len(lines) < 3 {
		t.Fatalf("got %d NDJSON lines, want >= 3:\n%s", len(lines), w.Body.String())
	}
	events := make([]PlacementsStreamEvent, len(lines))
	for i, ln := range lines {
		if err := json.Unmarshal([]byte(ln), &events[i]); err != nil {
			t.Fatalf("line %d is not JSON: %v\n%s", i, err, ln)
		}
	}
	last := events[len(lines)-1]
	if !last.Final || last.Plan == nil || last.Search == nil {
		t.Fatalf("terminal line is not a final result: %+v", last)
	}
	incr := events[:len(lines)-1]
	for i, ev := range incr {
		if ev.Final || ev.Plan == nil {
			t.Fatalf("incremental line %d malformed: %+v", i, ev)
		}
		if i > 0 && !ev.Plan.Better(incr[i-1].Plan) {
			t.Fatalf("incremental plan %d (obj %.6f) does not improve on %d (obj %.6f)",
				i, ev.Plan.Objective, i-1, incr[i-1].Plan.Objective)
		}
	}
	// The final plan is the last incremental one.
	if last.Plan.Objective != incr[len(incr)-1].Plan.Objective {
		t.Fatalf("final objective %.6f != last incremental %.6f",
			last.Plan.Objective, incr[len(incr)-1].Plan.Objective)
	}
	if last.Search.Improvements < 2 {
		t.Fatalf("want >= 2 improvements streamed, got %d", last.Search.Improvements)
	}
}

func TestPlacementsValidation(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxPlacementApps: 8, MaxPlacementMachines: 4, MaxPlacementBeam: 16})
	cases := []struct {
		name     string
		mutate   func(*PlacementsRequest)
		wantCode string
	}{
		{"no apps", func(r *PlacementsRequest) { r.Apps = nil }, CodeBadRequest},
		{"too many apps", func(r *PlacementsRequest) { r.Apps = make([]string, 9) }, CodeBadRequest},
		{"unknown app", func(r *PlacementsRequest) { r.Apps = []string{"nosuch"} }, CodeUnknownApp},
		{"no machines", func(r *PlacementsRequest) { r.Machines = nil }, CodeBadRequest},
		{"fleet too big", func(r *PlacementsRequest) { r.Machines[0].Count = 5 }, CodeBadRequest},
		{"negative count", func(r *PlacementsRequest) { r.Machines[0].Count = -1 }, CodeBadRequest},
		{"unknown machine", func(r *PlacementsRequest) { r.Machines[0].Machine = "nosuch" }, CodeBadRequest},
		{"zero cores", func(r *PlacementsRequest) { r.Machines[0].Cores = -2 }, CodeBadRequest},
		{"conflicting pstates", func(r *PlacementsRequest) { r.Machines[0].PStates = []int{0, 9} }, CodeBadPState},
		{"duplicate pstates", func(r *PlacementsRequest) { r.Machines[0].PStates = []int{0, 0} }, CodeBadRequest},
		{"bad objective", func(r *PlacementsRequest) { r.Objective = "latency" }, CodeBadRequest},
		{"bad qos", func(r *PlacementsRequest) { r.MaxSlowdown = 0.5 }, CodeBadRequest},
		{"beam too big", func(r *PlacementsRequest) { r.Beam = 99 }, CodeBadRequest},
		{"overfull fleet", func(r *PlacementsRequest) {
			r.Machines = []PlacementMachineRequest{{Cores: 1}}
			r.Apps = []string{"cg", "cg", "cg", "cg", "cg", "cg", "cg"}
		}, CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body := placementsBody()
			body.Machines = []PlacementMachineRequest{{Count: 2}}
			body.Apps = body.Apps[:6]
			tc.mutate(&body)
			w := postJSON(t, s.Handler(), "/v1/placements", body)
			if w.Code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
			}
			if got := errCode(t, w); got != tc.wantCode {
				t.Fatalf("code %q, want %q: %s", got, tc.wantCode, w.Body.String())
			}
		})
	}
}

// overflowingCount is the 70-byte request that took coloserve down: the
// second group's count wraps len(machines)+count negative, which slipped
// under the fleet limit and into an expansion loop that appended until
// the runtime ran out of memory.
const overflowingCount = `{"apps":["cg"],"machines":[{"count":1},{"count":9223372036854775807}]}`

func TestPlacementsCountOverflowIs400(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	req := httptest.NewRequest(http.MethodPost, "/v1/placements", strings.NewReader(overflowingCount))
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, req)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400: %s", w.Code, w.Body.String())
	}
	if got := errCode(t, w); got != CodeBadRequest {
		t.Fatalf("code %q, want %q: %s", got, CodeBadRequest, w.Body.String())
	}
}

func TestPlacementsTimeoutBeforePlanIs503(t *testing.T) {
	s, _ := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	w := postJSON(t, s.Handler(), "/v1/placements", placementsBody())
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", w.Code, w.Body.String())
	}
	if got := errCode(t, w); got != CodeTimeout {
		t.Fatalf("code %q, want %q", got, CodeTimeout)
	}
}

func TestPlacementsDrainingSheds(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	s.StartDrain()
	w := postJSON(t, s.Handler(), "/v1/placements", placementsBody())
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503", w.Code)
	}
	if got := errCode(t, w); got != CodeDraining {
		t.Fatalf("code %q, want %q", got, CodeDraining)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Fatal("missing Retry-After")
	}
}

// TestScheduleCompatShape pins POST /v1/schedule's behaviour now that it
// routes through the placement engine: the response shape is unchanged
// field for field, and the assignment still matches sched.GreedyAware.
func TestScheduleCompatShape(t *testing.T) {
	s, m := newTestServer(t, Config{})
	jobs := []string{"cg", "cg", "ep", "canneal", "cg", "ep"}
	w := postJSON(t, s.Handler(), "/v1/schedule", ScheduleRequest{
		Jobs: jobs, MaxSlowdown: 1.5,
	})
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	// Exactly the pre-placement-engine keys, no more, no fewer.
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(w.Body.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"model", "spec", "machine", "assignment", "machines_used", "jobs"} {
		if _, ok := raw[k]; !ok {
			t.Fatalf("response lost key %q: %s", k, w.Body.String())
		}
	}
	if len(raw) != 6 {
		t.Fatalf("response grew to %d keys: %s", len(raw), w.Body.String())
	}
	resp := decodeBody[ScheduleResponse](t, w)
	want, err := sched.GreedyAware(m, simproc.XeonE5649(), jobs, sched.AwareConfig{MaxSlowdown: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Assignment) != len(want) {
		t.Fatalf("assignment %v != sched.GreedyAware %v", resp.Assignment, want)
	}
	for i := range want {
		if strings.Join(resp.Assignment[i], ",") != strings.Join(want[i], ",") {
			t.Fatalf("machine %d: %v != %v", i, resp.Assignment[i], want[i])
		}
	}
	if resp.Machine != "Xeon E5649" || resp.Jobs != len(jobs) {
		t.Fatalf("identity fields wrong: %+v", resp)
	}
}

func TestPlacementsEnergyObjective(t *testing.T) {
	s, _ := newTestServer(t, Config{})
	body := placementsBody()
	body.Objective = "energy"
	w := postJSON(t, s.Handler(), "/v1/placements", body)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	resp := decodeBody[PlacementsResponse](t, w)
	if resp.Objective != "energy" {
		t.Fatalf("objective %q", resp.Objective)
	}
	if resp.Plan.Objective != resp.Plan.TotalEnergyJ {
		t.Fatalf("objective %.3f != total energy %.3f", resp.Plan.Objective, resp.Plan.TotalEnergyJ)
	}
}

// FuzzPlacements feeds hostile bodies to the placements decoder: the
// contract is a typed 4xx (or a valid 200) — never a panic, never a 5xx.
func FuzzPlacements(f *testing.F) {
	valid, err := json.Marshal(placementsBody())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add([]byte(""))
	f.Add([]byte("{"))
	f.Add([]byte(`{"apps":["cg"],"machines":[{"cores":0}]}`))
	f.Add([]byte(`{"apps":["nosuch"],"machines":[{}]}`))
	f.Add([]byte(`{"apps":["cg"],"machines":[{"pstates":[0,0]}]}`))
	f.Add([]byte(`{"apps":["cg"],"machines":[{"pstates":[-1,99]}]}`))
	f.Add([]byte(`{"apps":["cg"],"machines":[{"count":-5}]}`))
	f.Add([]byte(overflowingCount))
	f.Add([]byte(`{"apps":["cg"],"machines":[{"machine":"13core"}]}`))
	f.Add([]byte(`{"stream":true,"apps":["cg","ep"],"machines":[{"count":2}],"beam":2}`))
	s, _ := newTestServer(f, Config{
		MaxPlacementApps:     16,
		MaxPlacementMachines: 8,
		MaxPlacementBeam:     8,
		RequestTimeout:       2 * time.Second,
	})
	h := s.Handler()
	f.Fuzz(func(t *testing.T, data []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/placements", bytes.NewReader(data))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, req)
		if w.Code >= 500 {
			t.Fatalf("5xx on client input: %d %s (body %q)", w.Code, w.Body.String(), data)
		}
		if w.Code != http.StatusOK {
			// Typed error contract: a JSON envelope with a stable code.
			var eb errorBody
			if err := json.Unmarshal(w.Body.Bytes(), &eb); err != nil || eb.Error.Code == "" {
				t.Fatalf("untyped %d error body %q for input %q", w.Code, w.Body.String(), data)
			}
		}
	})
}
