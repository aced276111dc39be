package retrain

import (
	"math"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/feedback"
	"colocmodel/internal/harness"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

var (
	dsOnce sync.Once
	dsVal  *harness.Dataset
	dsErr  error
)

func testDataset(t testing.TB) *harness.Dataset {
	t.Helper()
	dsOnce.Do(func() {
		cg, _ := workload.ByName("cg")
		ep, _ := workload.ByName("ep")
		canneal, _ := workload.ByName("canneal")
		plan := harness.Plan{
			Spec:       simproc.XeonE5649(),
			Targets:    []workload.App{cg, canneal, ep},
			CoApps:     []workload.App{cg, ep},
			CoCounts:   []int{1, 3},
			PStates:    []int{0, 1},
			NoiseSigma: 0.01,
			Seed:       7,
		}
		dsVal, dsErr = harness.Collect(plan)
	})
	if dsErr != nil {
		t.Fatal(dsErr)
	}
	return dsVal
}

// split partitions the offline sweep by co-location count: the
// incumbent trains only on solo co-location, so heavier records look
// like a workload shift it has never seen.
func split(ds *harness.Dataset) (solo, heavy []harness.Record) {
	for _, r := range ds.Records {
		if r.NumCoLoc <= 1 {
			solo = append(solo, r)
		} else {
			heavy = append(heavy, r)
		}
	}
	return
}

func linearSpec(t testing.TB, seed uint64) core.Spec {
	t.Helper()
	set, err := features.SetByName("F")
	if err != nil {
		t.Fatal(err)
	}
	return core.Spec{Technique: core.Linear, FeatureSet: set, Seed: seed}
}

// fakeRegistry is the minimal Registry: one named slot with a
// generation counter, mirroring serve.Registry semantics.
type fakeRegistry struct {
	mu    sync.Mutex
	name  string
	model *core.Model
	gen   uint64
}

func (r *fakeRegistry) Get(name string) (*core.Model, uint64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name != r.name {
		return nil, 0, errUnknown
	}
	return r.model, r.gen, nil
}

func (r *fakeRegistry) Swap(name string, m *core.Model) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name != r.name {
		return errUnknown
	}
	r.model, r.gen = m, r.gen+1
	return nil
}

var errUnknown = &unknownErr{}

type unknownErr struct{}

func (*unknownErr) Error() string { return "unknown model" }

// observationsFrom converts harness records into deployment
// observations: the record's measured seconds is ground truth, the
// incumbent supplies the (wrong) prediction.
func observationsFrom(t testing.TB, m *core.Model, records []harness.Record) []feedback.Observation {
	t.Helper()
	out := make([]feedback.Observation, 0, len(records))
	for _, r := range records {
		sc := features.ScenarioFromRecord(r)
		pred, err := m.Predict(sc)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, feedback.Observation{
			Model: "primary", Generation: 1,
			Target: sc.Target, CoApps: sc.CoApps, PState: sc.PState,
			PredictedSeconds: pred, MeasuredSeconds: r.Seconds,
		})
	}
	return out
}

func newController(t testing.TB, cfg Config, reg Registry, base *harness.Dataset, obs []feedback.Observation) *Controller {
	t.Helper()
	log, err := feedback.Open(feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := log.AppendBatch(obs); err != nil {
		t.Fatal(err)
	}
	c, err := New(cfg, reg, base, log)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestPromotesWhenCandidateWins is the core closed-loop property: an
// incumbent trained only on solo co-location, judged on a holdout
// dominated by heavier observations, loses to a candidate retrained on
// the full augmented dataset — and the registry generation advances.
func TestPromotesWhenCandidateWins(t *testing.T) {
	ds := testDataset(t)
	solo, heavy := split(ds)
	incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
	if err != nil {
		t.Fatal(err)
	}
	reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}

	soloDS := *ds
	soloDS.Records = solo
	c := newController(t, Config{Model: "primary", Seed: 42, MinObservations: 10},
		reg, &soloDS, observationsFrom(t, incumbent, heavy))

	res, err := c.RunOnce("drift")
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatalf("candidate not promoted: %+v", res)
	}
	if res.CandidateMPE >= res.IncumbentMPE {
		t.Fatalf("promoted but candidate MPE %v >= incumbent %v", res.CandidateMPE, res.IncumbentMPE)
	}
	if res.Observations != len(heavy) || res.BaseRecords != len(solo) {
		t.Fatalf("augmented dataset wrong: %+v", res)
	}
	if _, gen, _ := reg.Get("primary"); gen != 2 {
		t.Fatalf("generation = %d, want 2 after promotion", gen)
	}
	if reg.model == incumbent {
		t.Fatal("registry still serves the incumbent after promotion")
	}

	st := c.Status()
	if st.Attempts != 1 || st.Promoted != 1 || st.Rejected != 0 || st.Last == nil || !st.Last.Promoted {
		t.Fatalf("status wrong: %+v", st)
	}
}

// TestRejectsWhenMarginNotMet: an impossible margin keeps the
// incumbent serving even though the candidate is strictly better.
func TestRejectsWhenMarginNotMet(t *testing.T) {
	ds := testDataset(t)
	solo, heavy := split(ds)
	incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
	if err != nil {
		t.Fatal(err)
	}
	reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}

	c := newController(t, Config{Model: "primary", Seed: 42, MinObservations: 10, MarginPct: 1e9},
		reg, ds, observationsFrom(t, incumbent, heavy))

	res, err := c.RunOnce("manual")
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted {
		t.Fatal("promoted despite impossible margin")
	}
	if !strings.Contains(res.Rejection, "does not beat") {
		t.Fatalf("rejection reason wrong: %q", res.Rejection)
	}
	if _, gen, _ := reg.Get("primary"); gen != 1 {
		t.Fatalf("generation moved to %d on a rejected attempt", gen)
	}
	if reg.model != incumbent {
		t.Fatal("incumbent replaced on a rejected attempt")
	}
	if st := c.Status(); st.Rejected != 1 || st.Promoted != 0 {
		t.Fatalf("status wrong: %+v", st)
	}
}

// TestRejectsOnTooFewObservations: below MinObservations nothing is
// trained at all.
func TestRejectsOnTooFewObservations(t *testing.T) {
	ds := testDataset(t)
	solo, heavy := split(ds)
	incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
	if err != nil {
		t.Fatal(err)
	}
	reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}
	c := newController(t, Config{Model: "primary", Seed: 1, MinObservations: 10_000},
		reg, ds, observationsFrom(t, incumbent, heavy))

	res, err := c.RunOnce("manual")
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted || !strings.Contains(res.Rejection, "observations") {
		t.Fatalf("expected observation-count rejection, got %+v", res)
	}
}

// TestSkipsUnusableObservations: observations naming unknown apps or
// out-of-range P-states are counted and excluded, not fatal.
func TestSkipsUnusableObservations(t *testing.T) {
	ds := testDataset(t)
	solo, heavy := split(ds)
	incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
	if err != nil {
		t.Fatal(err)
	}
	reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}

	obs := observationsFrom(t, incumbent, heavy)
	obs = append(obs,
		feedback.Observation{Model: "primary", Target: "no-such-app", PredictedSeconds: 1, MeasuredSeconds: 1},
		feedback.Observation{Model: "primary", Target: "cg", PState: 99, PredictedSeconds: 1, MeasuredSeconds: 1},
		feedback.Observation{Model: "primary", Target: "cg", CoApps: []string{"ghost"}, PredictedSeconds: 1, MeasuredSeconds: 1},
	)
	c := newController(t, Config{Model: "primary", Seed: 9, MinObservations: 10}, reg, ds, obs)

	res, err := c.RunOnce("manual")
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedObservations != 3 {
		t.Fatalf("skipped = %d, want 3", res.SkippedObservations)
	}
	if res.Observations != len(heavy) {
		t.Fatalf("usable observations = %d, want %d", res.Observations, len(heavy))
	}
}

// TestDeterministicAttempts: two controllers with identical config and
// inputs produce identical results.
func TestDeterministicAttempts(t *testing.T) {
	ds := testDataset(t)
	solo, heavy := split(ds)
	run := func() Result {
		incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
		if err != nil {
			t.Fatal(err)
		}
		reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}
		c := newController(t, Config{Model: "primary", Seed: 42, MinObservations: 10},
			reg, ds, observationsFrom(t, incumbent, heavy))
		res, err := c.RunOnce("drift")
		if err != nil {
			t.Fatal(err)
		}
		return *res
	}
	a, b := run(), run()
	if a.CandidateMPE != b.CandidateMPE || a.IncumbentMPE != b.IncumbentMPE ||
		a.Promoted != b.Promoted || a.TrainSize != b.TrainSize {
		t.Fatalf("attempts diverge:\n%+v\n%+v", a, b)
	}
}

// TestPromotionReleasesIncumbent: once promoted away, an incumbent is
// held by nothing in the controller, so a long-running adaptation loop
// does not keep every model it ever served alive. Two promotions (a
// margin so negative that every candidate wins) replace the first
// incumbent and then its successor; a finalizer on the first incumbent
// must then run.
func TestPromotionReleasesIncumbent(t *testing.T) {
	var collected atomic.Bool
	c := func() *Controller {
		ds := testDataset(t)
		solo, heavy := split(ds)
		incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(incumbent, func(*core.Model) { collected.Store(true) })
		reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}
		return newController(t, Config{Model: "primary", Seed: 42, MinObservations: 10, MarginPct: -1e9},
			reg, ds, observationsFrom(t, incumbent, heavy))
	}()
	for i := 0; i < 2; i++ {
		if res, err := c.RunOnce("drift"); err != nil || !res.Promoted {
			t.Fatalf("promotion %d failed: %+v %v", i+1, res, err)
		}
	}
	for i := 0; i < 50 && !collected.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !collected.Load() {
		t.Fatal("the first incumbent is still reachable after two promotions")
	}
	runtime.KeepAlive(c)
}

// TestTrainsFromBaselinesWithoutBaseDataset: with no offline dataset
// the controller falls back to the incumbent's baseline store and
// trains on observations alone.
func TestTrainsFromBaselinesWithoutBaseDataset(t *testing.T) {
	ds := testDataset(t)
	solo, heavy := split(ds)
	incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
	if err != nil {
		t.Fatal(err)
	}
	reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}
	// Observations cover the full mix so a from-scratch candidate can win.
	all := append(append([]harness.Record(nil), solo...), heavy...)
	c := newController(t, Config{Model: "primary", Seed: 4, MinObservations: 10},
		reg, nil, observationsFrom(t, incumbent, all))

	res, err := c.RunOnce("drift")
	if err != nil {
		t.Fatal(err)
	}
	if res.BaseRecords != 0 {
		t.Fatalf("base records = %d, want 0 without an offline dataset", res.BaseRecords)
	}
	if !res.Promoted {
		t.Fatalf("observations-only candidate not promoted: %+v", res)
	}
}

// TestOnPromoteCallback fires on promotion with the model name.
func TestOnPromoteCallback(t *testing.T) {
	ds := testDataset(t)
	solo, heavy := split(ds)
	incumbent, err := core.Train(linearSpec(t, 1), ds, solo)
	if err != nil {
		t.Fatal(err)
	}
	reg := &fakeRegistry{name: "primary", model: incumbent, gen: 1}
	c := newController(t, Config{Model: "primary", Seed: 42, MinObservations: 10},
		reg, ds, observationsFrom(t, incumbent, heavy))

	var got []string
	c.OnPromote(func(name string) { got = append(got, name) })
	if _, err := c.RunOnce("drift"); err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != "primary" {
		t.Fatalf("callback calls = %v, want [primary]", got)
	}
}

func TestConfigValidation(t *testing.T) {
	reg := &fakeRegistry{name: "m"}
	log, _ := feedback.Open(feedback.Config{})
	if _, err := New(Config{}, reg, nil, log); err == nil {
		t.Fatal("empty model name accepted")
	}
	if _, err := New(Config{Model: "m", MarginPct: math.NaN()}, reg, nil, log); err == nil {
		t.Fatal("NaN margin accepted: the gate would promote every candidate")
	}
	if _, err := New(Config{Model: "m"}, nil, nil, log); err == nil {
		t.Fatal("nil registry accepted")
	}
	if _, err := New(Config{Model: "m"}, reg, nil, nil); err == nil {
		t.Fatal("nil observation source accepted")
	}
}
