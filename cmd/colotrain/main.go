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
	"io"
	"math"
	"os"
	"strings"
	"text/tabwriter"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/simproc"
)

// options are colotrain's flags.
type options struct {
	machine, in, out, models string
	partitions               int
	seed                     uint64
	noise                    float64
	predict, coapp           string
	n, pstate                int
	saveModel, loadModel     string
}

func main() {
	var o options
	flag.StringVar(&o.machine, "machine", "6core", "machine to collect on: 6core or 12core")
	flag.StringVar(&o.in, "in", "", "load dataset from CSV instead of collecting")
	flag.StringVar(&o.out, "out", "", "save the collected dataset to CSV")
	flag.StringVar(&o.models, "models", "all", "comma-separated models (e.g. linear-A,neural-net-F) or 'all'")
	flag.IntVar(&o.partitions, "partitions", 100, "evaluation partitions")
	flag.Uint64Var(&o.seed, "seed", 42, "seed")
	flag.Float64Var(&o.noise, "noise", 0.01, "measurement noise sigma")
	flag.StringVar(&o.predict, "predict", "", "predict a scenario for this target app (trains neural-net-F)")
	flag.StringVar(&o.saveModel, "savemodel", "", "train neural-net-F on the dataset and save it as JSON")
	flag.StringVar(&o.loadModel, "loadmodel", "", "load a saved model for -predict instead of training")
	flag.StringVar(&o.coapp, "coapp", "cg", "co-app for -predict")
	flag.IntVar(&o.n, "n", 1, "co-located copies for -predict")
	flag.IntVar(&o.pstate, "pstate", 0, "P-state for -predict")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "colotrain:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	if o.n < 0 {
		return fmt.Errorf("-n %d: the number of co-located copies cannot be negative", o.n)
	}
	if o.loadModel != "" && o.predict == "" {
		return fmt.Errorf("-loadmodel %s needs -predict: a loaded model is only used to predict a scenario", o.loadModel)
	}
	if o.loadModel != "" && (o.saveModel != "" || o.out != "") {
		return fmt.Errorf("-loadmodel %s cannot be combined with -savemodel or -out: a loaded model only predicts, so no model is trained and no dataset is collected to write", o.loadModel)
	}
	// Without -predict or -savemodel the run evaluates models.
	evaluate := o.predict == "" && o.saveModel == ""
	if evaluate && o.partitions <= 0 {
		return fmt.Errorf("-partitions %d: evaluation needs at least one partition", o.partitions)
	}
	if o.loadModel != "" {
		m, err := loadModel(o.loadModel)
		if err != nil {
			return err
		}
		return printPrediction(w, m, o)
	}
	ds, err := obtainDataset(w, o.machine, o.in, o.seed, o.noise)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "dataset: %s, %d baselines, %d co-location records\n",
		ds.Machine, len(ds.Baselines), len(ds.Records))
	if o.out != "" {
		if err := writeFile(o.out, ds.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintf(w, "dataset written to %s\n", o.out)
	}

	if !evaluate {
		// -savemodel and -predict share one neural-net-F.
		setF, err := features.SetByName("F")
		if err != nil {
			return err
		}
		m, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: o.seed}, ds, ds.Records)
		if err != nil {
			return err
		}
		if o.saveModel != "" {
			if err := writeFile(o.saveModel, m.Save); err != nil {
				return err
			}
			fmt.Fprintf(w, "model written to %s\n", o.saveModel)
		}
		if o.predict != "" {
			return printPrediction(w, m, o)
		}
		return nil
	}

	specs, err := selectSpecs(o.models, o.seed)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "evaluating %d models with %d partitions (70/30 splits)...\n\n", len(specs), o.partitions)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "model\ttrain MPE\ttest MPE\ttrain NRMSE\ttest NRMSE\ttest MPE 95% CI")
	for _, spec := range specs {
		res, err := core.Evaluate(spec, ds, core.EvalConfig{Partitions: o.partitions, Seed: o.seed})
		if err != nil {
			return err
		}
		ci := "n/a" // one partition has no spread to bound
		if !math.IsNaN(res.TestMPECI) {
			ci = fmt.Sprintf("±%.2f%%", res.TestMPECI)
		}
		fmt.Fprintf(tw, "%s\t%.2f%%\t%.2f%%\t%.2f%%\t%.2f%%\t%s\n",
			spec, res.TrainMPE, res.TestMPE, res.TrainNRMSE, res.TestNRMSE, ci)
	}
	return tw.Flush()
}

func obtainDataset(w io.Writer, machine, in string, seed uint64, noise float64) (*harness.Dataset, error) {
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return harness.ReadCSV(f)
	}
	spec, err := simproc.MachineByName(machine)
	if err != nil {
		return nil, err
	}
	plan := harness.DefaultPlan(spec, seed)
	plan.NoiseSigma = noise
	fmt.Fprintf(w, "collecting %d co-location runs on %s...\n", plan.RunCount(), spec.Name)
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

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadModel reads a model previously saved with -savemodel.
func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.LoadModel(f)
}

// printPrediction predicts the -predict scenario with m and prints it.
func printPrediction(w io.Writer, m *core.Model, o options) error {
	co := make([]string, o.n)
	for i := range co {
		co[i] = o.coapp
	}
	sc := features.Scenario{Target: o.predict, CoApps: co, PState: o.pstate}
	pred, err := m.Predict(sc)
	if err != nil {
		return err
	}
	sd, err := m.PredictedSlowdown(sc)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "prediction (%s on %s):\n", m.Spec, m.Machine())
	fmt.Fprintf(w, "  %s + %d x %s at P%d\n", o.predict, o.n, o.coapp, o.pstate)
	fmt.Fprintf(w, "  predicted execution time: %.1f s\n", pred)
	fmt.Fprintf(w, "  predicted slowdown:       %.3f\n", sd)
	return nil
}
