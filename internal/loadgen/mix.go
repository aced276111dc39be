package loadgen

import (
	"encoding/json"
	"fmt"

	"colocmodel/internal/serve"
	"colocmodel/internal/xrand"
)

// Space enumerates the scenario universe of a served model: every
// (target, homogeneous co-runner set, P-state) combination, where the
// co-runner sets are "no co-runner" plus every app at 1..maxCo copies.
// Scenarios are addressed by a dense index so a Zipf sampler over a
// seeded permutation of the space yields a skewed, realistic request
// population: a few scenarios dominate (a scheduling loop re-evaluating
// its hot jobs) while the long tail keeps the workload honest.
type Space struct {
	apps    []string
	pstates int
	maxCo   int
}

// NewSpace builds a scenario space from a model's app list, P-state
// count, and the largest co-runner multiplicity to generate.
func NewSpace(apps []string, pstates, maxCo int) (*Space, error) {
	if len(apps) == 0 {
		return nil, fmt.Errorf("loadgen: scenario space needs at least one app")
	}
	for _, a := range apps {
		if a == "" {
			return nil, fmt.Errorf("loadgen: empty app name in scenario space")
		}
	}
	if pstates < 1 {
		return nil, fmt.Errorf("loadgen: scenario space needs at least one P-state")
	}
	if maxCo < 0 {
		return nil, fmt.Errorf("loadgen: negative max co-runners")
	}
	return &Space{apps: append([]string(nil), apps...), pstates: pstates, maxCo: maxCo}, nil
}

// Size returns the number of distinct scenarios.
func (s *Space) Size() int {
	return len(s.apps) * (1 + len(s.apps)*s.maxCo) * s.pstates
}

// Scenario decodes a dense index into a wire scenario: mixed-radix over
// (target, co-runner set, P-state).
func (s *Space) Scenario(idx int) serve.ScenarioRequest {
	n := len(s.apps)
	t := idx % n
	idx /= n
	coSets := 1 + n*s.maxCo
	c := idx % coSets
	ps := idx / coSets
	sr := serve.ScenarioRequest{Target: s.apps[t], PState: ps}
	if c > 0 {
		app := s.apps[(c-1)%n]
		count := (c-1)/n + 1
		co := make([]string, count)
		for i := range co {
			co[i] = app
		}
		sr.CoApps = co
	}
	return sr
}

// Mix tunes the generated traffic: the Zipf skew of the scenario
// population and the relative weights of the operation types. A weight
// of zero removes the operation from the mix; all-zero weights default
// to predict-only. Observation traffic requires the target server to
// run with the adaptation loop enabled (it answers 503 otherwise).
type Mix struct {
	// ZipfSkew is the scenario popularity exponent (0 = uniform).
	// Default 1.1.
	ZipfSkew float64
	// PredictWeight, BatchWeight, ObserveWeight and ReloadWeight set the
	// relative frequency of POST /v1/predict, /v1/predict/batch,
	// /v1/observations and /v1/models/reload operations.
	PredictWeight float64
	BatchWeight   float64
	ObserveWeight float64
	ReloadWeight  float64
	// PlacementWeight sets the relative frequency of POST /v1/placements
	// operations: small seeded optimizer problems (a two-machine fleet,
	// a handful of pending apps) that fan out to many batched predictions
	// server-side — the heaviest op in the mix by design.
	PlacementWeight float64
	// BatchSize is the scenarios per batch request. Default 16.
	BatchSize int
}

func (m *Mix) defaults() {
	if m.ZipfSkew == 0 {
		m.ZipfSkew = 1.1
	}
	if m.PredictWeight == 0 && m.BatchWeight == 0 && m.ObserveWeight == 0 && m.ReloadWeight == 0 && m.PlacementWeight == 0 {
		m.PredictWeight = 1
	}
	if m.BatchSize <= 0 {
		m.BatchSize = 16
	}
}

func (m Mix) validate() error {
	for _, w := range []float64{m.PredictWeight, m.BatchWeight, m.ObserveWeight, m.ReloadWeight, m.PlacementWeight} {
		if w < 0 {
			return fmt.Errorf("loadgen: negative mix weight")
		}
	}
	if m.ZipfSkew < 0 {
		return fmt.Errorf("loadgen: negative zipf skew")
	}
	return nil
}

// Operation kind names, also the keys of Result.PerOp.
const (
	OpPredict    = "predict"
	OpBatch      = "predict_batch"
	OpObserve    = "observations"
	OpReload     = "reload"
	OpPlacements = "placements"
)

// Op is one generated request.
type Op struct {
	// Kind is one of the Op* constants.
	Kind string
	// Method and Path address the serve-tier endpoint.
	Method string
	Path   string
	// Body is the JSON request body (nil for reload).
	Body []byte
}

// generator produces the deterministic op stream: a Zipf-permuted
// scenario sampler plus a weighted op-kind sampler, all drawing from one
// seeded source so the sequence is reproducible bit-for-bit.
type generator struct {
	space *Space
	perm  []int
	zipf  *xrand.Zipf
	kinds *xrand.Weighted
	byIdx []string
	batch int
	src   *xrand.Source
}

func newGenerator(space *Space, mix Mix, src *xrand.Source) *generator {
	mix.defaults()
	g := &generator{
		space: space,
		perm:  src.Perm(space.Size()),
		zipf:  xrand.NewZipf(src, mix.ZipfSkew, space.Size()),
		batch: mix.BatchSize,
		src:   src,
	}
	var weights []float64
	for _, kw := range []struct {
		kind   string
		weight float64
	}{
		{OpPredict, mix.PredictWeight},
		{OpBatch, mix.BatchWeight},
		{OpObserve, mix.ObserveWeight},
		{OpReload, mix.ReloadWeight},
		{OpPlacements, mix.PlacementWeight},
	} {
		if kw.weight > 0 {
			g.byIdx = append(g.byIdx, kw.kind)
			weights = append(weights, kw.weight)
		}
	}
	g.kinds = xrand.NewWeighted(src, weights)
	return g
}

func (g *generator) scenario() serve.ScenarioRequest {
	return g.space.Scenario(g.perm[g.zipf.Next()])
}

func mustMarshal(v any) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("loadgen: marshaling request: %v", err))
	}
	return raw
}

// next returns the next op in the stream.
func (g *generator) next() Op {
	switch kind := g.byIdx[g.kinds.Next()]; kind {
	case OpPredict:
		return Op{Kind: kind, Method: "POST", Path: "/v1/predict",
			Body: mustMarshal(serve.PredictRequest{ScenarioRequest: g.scenario()})}
	case OpBatch:
		scs := make([]serve.ScenarioRequest, g.batch)
		for i := range scs {
			scs[i] = g.scenario()
		}
		return Op{Kind: kind, Method: "POST", Path: "/v1/predict/batch",
			Body: mustMarshal(serve.BatchRequest{Scenarios: scs})}
	case OpObserve:
		sc := g.scenario()
		return Op{Kind: kind, Method: "POST", Path: "/v1/observations",
			Body: mustMarshal(serve.ObservationRequest{
				Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
				// A plausible positive runtime; load generation only
				// exercises the ingest path, not model accuracy.
				MeasuredSeconds: g.src.LogNormal(3, 0.5),
			})}
	case OpPlacements:
		// A small seeded optimizer problem: a two-machine fleet of the
		// model's default machine and 3..6 pending apps sampled from the
		// scenario population. The beam is kept narrow so one op stays a
		// bounded (if heavy) unit of work.
		apps := make([]string, 3+g.src.Intn(4))
		for i := range apps {
			apps[i] = g.space.apps[g.src.Intn(len(g.space.apps))]
		}
		return Op{Kind: kind, Method: "POST", Path: "/v1/placements",
			Body: mustMarshal(serve.PlacementsRequest{
				Machines:    []serve.PlacementMachineRequest{{Count: 2}},
				Apps:        apps,
				MaxSlowdown: 2.5,
				Seed:        g.src.Uint64(),
				Beam:        4,
			})}
	default: // OpReload
		return Op{Kind: OpReload, Method: "POST", Path: "/v1/models/reload"}
	}
}
