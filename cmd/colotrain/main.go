// Command colotrain collects (or loads) a Table V training dataset and
// trains and evaluates co-location performance models on it.
//
// Usage:
//
//	colotrain -machine 6core -out data6.csv          # collect and save
//	colotrain -in data6.csv -models linear-F,neural-net-F -partitions 50
//	colotrain -machine 12core -predict canneal -coapp cg -n 5
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"text/tabwriter"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/simproc"
)

func main() {
	var (
		machine    = flag.String("machine", "6core", "machine to collect on: 6core or 12core")
		in         = flag.String("in", "", "load dataset from CSV instead of collecting")
		out        = flag.String("out", "", "save the collected dataset to CSV")
		models     = flag.String("models", "all", "comma-separated models (e.g. linear-A,neural-net-F) or 'all'")
		partitions = flag.Int("partitions", 100, "evaluation partitions")
		seed       = flag.Uint64("seed", 42, "seed")
		noise      = flag.Float64("noise", 0.01, "measurement noise sigma")
		predict    = flag.String("predict", "", "predict a scenario for this target app (trains neural-net-F)")
		saveModel  = flag.String("savemodel", "", "train neural-net-F on the dataset and save it as JSON")
		loadModel  = flag.String("loadmodel", "", "load a saved model for -predict instead of training")
		coapp      = flag.String("coapp", "cg", "co-app for -predict")
		n          = flag.Int("n", 1, "co-located copies for -predict")
		pstate     = flag.Int("pstate", 0, "P-state for -predict")
	)
	flag.Parse()
	if err := run(*machine, *in, *out, *models, *partitions, *seed, *noise, *predict, *coapp, *n, *pstate, *saveModel, *loadModel); err != nil {
		fmt.Fprintln(os.Stderr, "colotrain:", err)
		os.Exit(1)
	}
}

func run(machine, in, out, models string, partitions int, seed uint64, noise float64,
	predict, coapp string, n, pstate int, saveModel, loadModel string) error {
	if n < 0 {
		return fmt.Errorf("-n %d: the number of co-located copies cannot be negative", n)
	}
	if loadModel != "" && predict == "" {
		return fmt.Errorf("-loadmodel %s needs -predict: a loaded model is only used to predict a scenario", loadModel)
	}
	// Without -predict or -savemodel the run evaluates models.
	evaluate := predict == "" && saveModel == ""
	if evaluate && partitions <= 0 {
		return fmt.Errorf("-partitions %d: evaluation needs at least one partition", partitions)
	}
	if loadModel != "" {
		return runPredictLoaded(loadModel, predict, coapp, n, pstate)
	}
	ds, err := obtainDataset(machine, in, seed, noise)
	if err != nil {
		return err
	}
	fmt.Printf("dataset: %s, %d baselines, %d co-location records\n",
		ds.Machine, len(ds.Baselines), len(ds.Records))
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		if err := ds.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("dataset written to %s\n", out)
	}

	if saveModel != "" {
		if err := trainAndSave(ds, seed, saveModel); err != nil {
			return err
		}
	}
	if predict != "" {
		return runPredict(ds, seed, predict, coapp, n, pstate)
	}
	if !evaluate {
		return nil
	}

	specs, err := selectSpecs(models, seed)
	if err != nil {
		return err
	}
	fmt.Printf("evaluating %d models with %d partitions (70/30 splits)...\n\n", len(specs), partitions)
	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\ttrain MPE\ttest MPE\ttrain NRMSE\ttest NRMSE\ttest MPE 95% CI")
	for _, spec := range specs {
		res, err := core.Evaluate(spec, ds, core.EvalConfig{Partitions: partitions, Seed: seed})
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\t%.2f%%\t%.2f%%\t±%.2f%%\n",
			spec, res.TrainMPE, res.TestMPE, res.TrainNRMSE, res.TestNRMSE, res.TestMPECI)
	}
	return w.Flush()
}

func obtainDataset(machine, in string, seed uint64, noise float64) (*harness.Dataset, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return harness.ReadCSV(f)
	}
	var spec simproc.Spec
	switch machine {
	case "6core":
		spec = simproc.XeonE5649()
	case "12core":
		spec = simproc.XeonE52697v2()
	default:
		return nil, fmt.Errorf("unknown machine %q (want 6core or 12core)", machine)
	}
	plan := harness.DefaultPlan(spec, seed)
	plan.NoiseSigma = noise
	fmt.Printf("collecting %d co-location runs on %s...\n", plan.RunCount(), spec.Name)
	return harness.Collect(plan)
}

func selectSpecs(models string, seed uint64) ([]core.Spec, error) {
	all := core.AllSpecs(seed)
	if models == "all" {
		return all, nil
	}
	byName := map[string]core.Spec{}
	for _, s := range all {
		byName[s.String()] = s
	}
	var out []core.Spec
	for _, name := range strings.Split(models, ",") {
		s, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown model %q (want e.g. linear-A or neural-net-F)", name)
		}
		out = append(out, s)
	}
	return out, nil
}

func runPredict(ds *harness.Dataset, seed uint64, target, coapp string, n, pstate int) error {
	setF, err := features.SetByName("F")
	if err != nil {
		return err
	}
	m, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: seed}, ds, ds.Records)
	if err != nil {
		return err
	}
	co := make([]string, n)
	for i := range co {
		co[i] = coapp
	}
	sc := features.Scenario{Target: target, CoApps: co, PState: pstate}
	pred, err := m.Predict(sc)
	if err != nil {
		return err
	}
	sd, err := m.PredictedSlowdown(sc)
	if err != nil {
		return err
	}
	fmt.Printf("prediction (neural-net-F on %s):\n", ds.Machine)
	fmt.Printf("  %s + %d x %s at P%d\n", target, n, coapp, pstate)
	fmt.Printf("  predicted execution time: %.1f s\n", pred)
	fmt.Printf("  predicted slowdown:       %.3f\n", sd)
	return nil
}

// trainAndSave trains neural-net-F on the dataset and writes it to path.
func trainAndSave(ds *harness.Dataset, seed uint64, path string) error {
	setF, err := features.SetByName("F")
	if err != nil {
		return err
	}
	m, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: seed}, ds, ds.Records)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("model written to %s\n", path)
	return nil
}

// runPredictLoaded predicts a scenario with a previously saved model.
func runPredictLoaded(path, target, coapp string, n, pstate int) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	m, err := core.LoadModel(f)
	if err != nil {
		return err
	}
	co := make([]string, n)
	for i := range co {
		co[i] = coapp
	}
	sc := features.Scenario{Target: target, CoApps: co, PState: pstate}
	pred, err := m.Predict(sc)
	if err != nil {
		return err
	}
	sd, err := m.PredictedSlowdown(sc)
	if err != nil {
		return err
	}
	fmt.Printf("prediction (%s, loaded from %s):\n", m.Spec, path)
	fmt.Printf("  %s + %d x %s at P%d\n", target, n, coapp, pstate)
	fmt.Printf("  predicted execution time: %.1f s\n", pred)
	fmt.Printf("  predicted slowdown:       %.3f\n", sd)
	return nil
}
