package colocmodel_test

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"colocmodel"
)

// The facade tests exercise the public API end to end on a reduced
// campaign: collect → train → predict → schedule → energy.

var (
	apiOnce  sync.Once
	apiDS    *colocmodel.Dataset
	apiModel *colocmodel.Model
	apiErr   error
)

func apiFixtures(t testing.TB) (*colocmodel.Dataset, *colocmodel.Model) {
	t.Helper()
	apiOnce.Do(func() {
		spec := colocmodel.XeonE5649()
		plan := colocmodel.DefaultPlan(spec, 99)
		// Reduce the campaign for test speed: P0 and P3 only.
		plan.PStates = []int{0, 3}
		apiDS, apiErr = colocmodel.CollectDataset(plan)
		if apiErr != nil {
			return
		}
		setF, err := colocmodel.FeatureSetByName("F")
		if err != nil {
			apiErr = err
			return
		}
		apiModel, apiErr = colocmodel.TrainModel(colocmodel.ModelSpec{
			Technique:  colocmodel.NeuralNet,
			FeatureSet: setF,
			Seed:       99,
		}, apiDS, apiDS.Records)
	})
	if apiErr != nil {
		t.Fatal(apiErr)
	}
	return apiDS, apiModel
}

func TestMachinesAndApps(t *testing.T) {
	if six, twelve := colocmodel.XeonE5649(), colocmodel.XeonE52697v2(); six.Cores != 6 || twelve.Cores != 12 {
		t.Fatalf("machines have %d and %d cores, want 6 and 12", six.Cores, twelve.Cores)
	}
	a, err := colocmodel.AppByName("cg")
	if err != nil || a.Name != "cg" {
		t.Fatalf("cg lookup: %+v, %v", a, err)
	}
	if _, err := colocmodel.AppByName("ghost"); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestPublicCollectTrainPredict(t *testing.T) {
	ds, model := apiFixtures(t)
	if ds.Machine != "Xeon E5649" {
		t.Fatalf("machine = %q", ds.Machine)
	}
	slow, err := model.PredictedSlowdown(colocmodel.Scenario{
		Target: "canneal",
		CoApps: []string{"cg", "cg", "cg"},
		PState: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if slow < 1.02 || slow > 2.5 {
		t.Fatalf("predicted slowdown %v implausible", slow)
	}
}

func TestPublicScheduling(t *testing.T) {
	_, model := apiFixtures(t)
	spec := colocmodel.XeonE5649()
	jobs := []string{"cg", "cg", "ep", "ep", "canneal", "canneal", "canneal"}
	obl := colocmodel.ScheduleOblivious(spec, jobs)
	placed := 0
	for _, m := range obl {
		placed += len(m)
	}
	if placed != len(jobs) {
		t.Fatal("oblivious lost jobs")
	}
	aware, err := colocmodel.ScheduleAware(model, spec, jobs, colocmodel.AwareConfig{
		MaxSlowdown: 1.2, PState: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev, err := colocmodel.MeasureAssignment(spec, aware, 0, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev.Outcomes) != len(jobs) {
		t.Fatalf("measured %d outcomes", len(ev.Outcomes))
	}
}

func TestPublicEnergy(t *testing.T) {
	_, model := apiFixtures(t)
	est, err := colocmodel.NewEnergyEstimator(colocmodel.XeonE5649())
	if err != nil {
		t.Fatal(err)
	}
	e, err := colocmodel.PredictTargetEnergy(model, est, colocmodel.Scenario{
		Target: "canneal", CoApps: []string{"cg"}, PState: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e.TargetEnergyJ <= 0 {
		t.Fatalf("energy = %v", e.TargetEnergyJ)
	}
	sweep, err := colocmodel.SweepEnergyPStates(model, est, colocmodel.Scenario{
		Target: "canneal", CoApps: []string{"cg"},
	})
	if err != nil || len(sweep) != 6 {
		t.Fatalf("sweep: %d estimates, %v", len(sweep), err)
	}
}

func TestPublicSimulatorAccess(t *testing.T) {
	proc, err := colocmodel.NewProcessor(colocmodel.XeonE52697v2())
	if err != nil {
		t.Fatal(err)
	}
	canneal, err := colocmodel.AppByName("canneal")
	if err != nil {
		t.Fatal(err)
	}
	cg, err := colocmodel.AppByName("cg")
	if err != nil {
		t.Fatal(err)
	}
	run, err := proc.RunColocation(canneal, []colocmodel.App{cg, cg}, 0, colocmodel.RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if run.TargetSeconds <= 0 {
		t.Fatal("no execution time")
	}
}

func TestPublicBatchSimulation(t *testing.T) {
	_, model := apiFixtures(t)
	spec := colocmodel.XeonE5649()
	jobs := []string{"cg", "cg", "ep", "canneal", "canneal", "ft", "sp"}
	packed, err := colocmodel.SimulateBatch(spec, jobs, colocmodel.BatchConfig{
		Machines: 1, Policy: colocmodel.PackFirst, MaxSlowdown: 1.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	aware, err := colocmodel.SimulateBatch(spec, jobs, colocmodel.BatchConfig{
		Machines: 2, Policy: colocmodel.AwareSpread, Model: model, MaxSlowdown: 1.15,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(packed.Jobs) != len(jobs) || len(aware.Jobs) != len(jobs) {
		t.Fatal("jobs lost")
	}
	if aware.MeanSlowdown > packed.MeanSlowdown {
		t.Fatalf("aware-spread on 2 machines (%.3f) worse than packed on 1 (%.3f)",
			aware.MeanSlowdown, packed.MeanSlowdown)
	}
}

func TestPublicModelPersistence(t *testing.T) {
	_, model := apiFixtures(t)
	var buf bytes.Buffer
	if err := model.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := colocmodel.LoadModel(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sc := colocmodel.Scenario{Target: "canneal", CoApps: []string{"cg"}, PState: 0}
	want, err := model.Predict(sc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Predict(sc)
	if err != nil {
		t.Fatal(err)
	}
	if want != got {
		t.Fatalf("loaded model predicts %v, original %v", got, want)
	}
}

func TestPublicServingTier(t *testing.T) {
	_, model := apiFixtures(t)
	reg := colocmodel.NewModelRegistry()
	if err := reg.Add("nn-f", "", model); err != nil {
		t.Fatal(err)
	}
	srv := colocmodel.NewPredictionServer(reg, colocmodel.PredictionServerConfig{})
	h := srv.Handler()

	sc := colocmodel.Scenario{Target: "canneal", CoApps: []string{"cg", "cg"}, PState: 0}
	want, err := model.PredictedSlowdown(sc)
	if err != nil {
		t.Fatal(err)
	}
	body := `{"target":"canneal","co_apps":["cg","cg"],"pstate":0}`
	req := httptest.NewRequest("POST", "/v1/predict", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != 200 {
		t.Fatalf("status %d: %s", w.Code, w.Body.String())
	}
	var resp struct {
		Slowdown float64 `json:"predicted_slowdown"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Slowdown != want {
		t.Fatalf("served slowdown %v, model says %v", resp.Slowdown, want)
	}
	if infos := reg.List(); len(infos) != 1 || infos[0].Spec != "neural-net-F" {
		t.Fatalf("registry listing: %+v", infos)
	}
}
