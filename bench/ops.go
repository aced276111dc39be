package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/loadgen"
	"colocmodel/internal/serve"
	"colocmodel/internal/xrand"
)

const (
	batchRows      = 64   // scenarios per batch request, observations per observe request
	hotMaxCo       = 5    // NewSpace(apps, 6, 5): 3696 homogeneous scenarios
	hotZipfS       = 1.1  // skew of the hot population
	wideBatches    = 2048 // 131 072 distinct wide scenarios: twice the 65 536-entry cache
	placementPool  = 128  // distinct placement problems: their median cost then moves little with the seed
	placementApps  = 16
	placementFleet = 4
	placementBeam  = 12
	placementQoS   = 2.5
	observePool    = 256 // distinct observation batches
	streamLen      = 1 << 19
	batchEvery     = 8 // node_wide mix: 7 batches to 1 placement
)

// op is one pre-generated request: all the served program ever sees. A
// deep check decodes the body again to replay it, so the pools hold
// nothing but bytes and add no pointers for the collector to chase while
// a phase is being timed.
type op struct {
	kind opKind
	path string
	body []byte
}

// opSet is one family's request pool plus each client's order through it.
// Everything is generated from the seed before the clock starts; clients
// wrap around a stream they exhaust.
type opSet struct {
	pool    []op
	streams [][]int32
}

// hash identifies a client's op stream: same seed, same hash; another
// seed, another hash.
func (s *opSet) hash(client int) string {
	h := sha256.New()
	for _, o := range s.pool {
		h.Write(o.body)
		h.Write([]byte{0})
	}
	var b [4]byte
	for _, i := range s.streams[client] {
		binary.LittleEndian.PutUint32(b[:], uint32(i))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // static shapes
	}
	return b
}

func toScenario(sr serve.ScenarioRequest) features.Scenario {
	return features.Scenario{Target: sr.Target, CoApps: sr.CoApps, PState: sr.PState}
}

// hotOps is the hot population: every homogeneous scenario of the model
// (it fits the prediction cache), sampled Zipf over a seeded permutation.
func hotOps(m *core.Model, seed uint64, clients int) (*opSet, error) {
	space, err := loadgen.NewSpace(m.Apps(), m.PStates(), hotMaxCo)
	if err != nil {
		return nil, err
	}
	src := xrand.New(seed ^ 0x686f74) // "hot"
	perm := src.Perm(space.Size())
	set := &opSet{pool: make([]op, space.Size())}
	for rank, idx := range perm {
		sr := space.Scenario(idx)
		set.pool[rank] = op{
			kind: kindPredict,
			path: "/v1/predict",
			body: mustJSON(serve.PredictRequest{ScenarioRequest: sr}),
		}
	}
	for c := 0; c < clients; c++ {
		z := xrand.NewZipf(src.Split(), hotZipfS, space.Size())
		stream := make([]int32, streamLen)
		for i := range stream {
			stream[i] = int32(z.Next())
		}
		set.streams = append(set.streams, stream)
	}
	return set, nil
}

// wideOps is the wide population: batches of distinct heterogeneous
// scenarios (target × P-state × a uniformly drawn multiset of 0–5
// co-runners), more of them than the cache holds so nearly every row
// misses, mixed 7:1 with placement problems.
func wideOps(m *core.Model, seed uint64, clients int) *opSet {
	src := xrand.New(seed ^ 0x77696465) // "wide"
	apps := m.Apps()
	seen := make(map[string]struct{}, wideBatches*batchRows)
	set := &opSet{}
	for b := 0; b < wideBatches; b++ {
		req := serve.BatchRequest{Scenarios: make([]serve.ScenarioRequest, 0, batchRows)}
		for len(req.Scenarios) < batchRows {
			sr := serve.ScenarioRequest{
				Target: apps[src.Intn(len(apps))],
				PState: src.Intn(m.PStates()),
				CoApps: make([]string, src.Intn(hotMaxCo+1)),
			}
			for i := range sr.CoApps {
				sr.CoApps[i] = apps[src.Intn(len(apps))]
			}
			key := serve.CanonicalScenario(toScenario(sr))
			if _, dup := seen[key]; dup {
				continue
			}
			seen[key] = struct{}{}
			req.Scenarios = append(req.Scenarios, sr)
		}
		set.pool = append(set.pool, op{kind: kindBatch, path: "/v1/predict/batch", body: mustJSON(req)})
	}
	for p := 0; p < placementPool; p++ {
		req := serve.PlacementsRequest{
			Machines:    []serve.PlacementMachineRequest{{Machine: "6core", Count: placementFleet}},
			Apps:        make([]string, placementApps),
			MaxSlowdown: placementQoS,
			Seed:        src.Uint64(),
			Beam:        placementBeam,
		}
		for i := range req.Apps {
			req.Apps[i] = apps[src.Intn(len(apps))]
		}
		set.pool = append(set.pool, op{kind: kindPlacement, path: "/v1/placements", body: mustJSON(req)})
	}
	for c := 0; c < clients; c++ {
		// Each client walks the batches in order from its own offset, so
		// a scenario comes round again only after the whole pool has
		// passed through the cache, and the placement problems in order
		// too, so every window times the same blend of easy and hard
		// ones. Every eighth op is a placement, from a drawn offset.
		next, nextPlan := c*wideBatches/clients, c*placementPool/clients
		offset := src.Intn(batchEvery)
		stream := make([]int32, streamLen/8)
		for i := range stream {
			if (i+offset)%batchEvery == 0 {
				stream[i] = int32(wideBatches + nextPlan%placementPool)
				nextPlan++
				continue
			}
			stream[i] = int32(next % wideBatches)
			next++
		}
		set.streams = append(set.streams, stream)
	}
	return set
}

// observeOps is the ingest writer's stream: batches of 64 observations of
// hot scenarios, each carrying the model's own prediction and a measured
// time within a few percent of it.
func observeOps(m *core.Model, seed uint64) (*opSet, error) {
	space, err := loadgen.NewSpace(m.Apps(), m.PStates(), hotMaxCo)
	if err != nil {
		return nil, err
	}
	src := xrand.New(seed ^ 0x6f6273) // "obs"
	set := &opSet{}
	for b := 0; b < observePool; b++ {
		req := serve.ObservationsRequest{Observations: make([]serve.ObservationRequest, batchRows)}
		for i := range req.Observations {
			sr := space.Scenario(src.Intn(space.Size()))
			predicted, err := m.Predict(toScenario(sr))
			if err != nil {
				return nil, fmt.Errorf("predicting observation scenario: %w", err)
			}
			req.Observations[i] = serve.ObservationRequest{
				Target: sr.Target, CoApps: sr.CoApps, PState: sr.PState,
				PredictedSeconds: predicted,
				MeasuredSeconds:  predicted * math.Exp(src.Normal(0, 0.02)),
			}
		}
		set.pool = append(set.pool, op{kind: kindObserve, path: "/v1/observations", body: mustJSON(req)})
	}
	stream := make([]int32, streamLen/8)
	for i := range stream {
		stream[i] = int32(src.Intn(observePool))
	}
	set.streams = [][]int32{stream}
	return set, nil
}
