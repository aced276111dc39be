package colocmodel_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http/httptest"
	"reflect"
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
	six := colocmodel.PlacementMachine{Spec: colocmodel.XeonE5649(), PStates: []int{0}}
	prob := colocmodel.PlacementProblem{
		Model:    model,
		Machines: []colocmodel.PlacementMachine{six, six},
		Apps:     []string{"cg", "cg", "ep", "ep", "canneal", "canneal", "canneal"},
		QoSBound: 1.2,
		Beam:     8,
		Seed:     1,
	}
	packed, err := colocmodel.PackFirst(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if packed.MachinesUsed != 2 || len(packed.Assignments[0]) != 6 {
		t.Fatalf("pack-first did not fill machine 0 first: %v", packed.Assignments)
	}
	res, err := colocmodel.Optimize(context.Background(), prob)
	if err != nil {
		t.Fatal(err)
	}
	if res.Plan.Objective > packed.Objective {
		t.Fatalf("optimised objective %v above pack-first's %v", res.Plan.Objective, packed.Objective)
	}
	for _, plan := range []*colocmodel.PlacementPlan{packed, res.Plan} {
		got, err := colocmodel.Realise(prob, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Apps) != len(prob.Apps) || !reflect.DeepEqual(got.Assignments, plan.Assignments) {
			t.Fatalf("realised %v, planned %v", got.Assignments, plan.Assignments)
		}
		for i, a := range got.Apps {
			if !(a.Slowdown >= 1) || a.App != prob.Apps[i] {
				t.Fatalf("app %d realised %+v", i, a)
			}
		}
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
