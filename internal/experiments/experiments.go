// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V) from the simulated substrate. It is the engine
// behind cmd/coloexp and the repository's benchmark harness; EXPERIMENTS.md
// records its output next to the paper's numbers.
//
// Registry lists every experiment, with its id and title, in print order.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"text/tabwriter"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/pca"
	"colocmodel/internal/simproc"
	"colocmodel/internal/stats"
	"colocmodel/internal/workload"
	"colocmodel/internal/xrand"
)

// Config tunes the experiment suite.
type Config struct {
	// Partitions is the repeated random sub-sampling count (paper: 100).
	Partitions int
	// Seed drives data-collection noise, partitioning, and model
	// initialisation.
	Seed uint64
	// NoiseSigma is the measurement-noise sigma for data collection.
	NoiseSigma float64
}

// Suite holds the collected datasets and memoised evaluation results.
type Suite struct {
	cfg  Config
	ds6  *harness.Dataset
	ds12 *harness.Dataset

	eval6  []*core.EvalResult
	eval12 []*core.EvalResult
}

// NewSuite collects the Table V datasets for both machines.
func NewSuite(cfg Config) (*Suite, error) {
	if cfg.Partitions <= 0 {
		return nil, fmt.Errorf("experiments: partitions must be positive")
	}
	s := &Suite{cfg: cfg}
	for _, spec := range simproc.Machines() {
		plan := harness.DefaultPlan(spec, cfg.Seed)
		plan.NoiseSigma = cfg.NoiseSigma
		ds, err := harness.Collect(plan)
		if err != nil {
			return nil, err
		}
		if spec.Cores == 6 {
			s.ds6 = ds
		} else {
			s.ds12 = ds
		}
	}
	return s, nil
}

// Dataset returns the collected dataset for the 6- or 12-core machine.
func (s *Suite) Dataset(cores int) (*harness.Dataset, error) {
	switch cores {
	case 6:
		return s.ds6, nil
	case 12:
		return s.ds12, nil
	default:
		return nil, fmt.Errorf("experiments: no machine with %d cores", cores)
	}
}

// evaluations runs (and memoises) the twelve-model evaluation for one
// machine.
func (s *Suite) evaluations(cores int) ([]*core.EvalResult, error) {
	ds, err := s.Dataset(cores)
	if err != nil {
		return nil, err
	}
	cached := &s.eval6
	if cores == 12 {
		cached = &s.eval12
	}
	if *cached != nil {
		return *cached, nil
	}
	res, err := core.EvaluateAll(ds, core.EvalConfig{Partitions: s.cfg.Partitions, Seed: s.cfg.Seed})
	if err != nil {
		return nil, err
	}
	*cached = res
	return res, nil
}

// Table1 renders Table I: the eight model features.
func Table1() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Feature name\taspect of execution measured")
	for _, f := range features.AllFeatures() {
		fmt.Fprintf(w, "%s\t%s\n", f, f.Describe())
	}
	w.Flush()
	return b.String()
}

// Table2 renders Table II: the feature-set groups.
func Table2() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Set name\tfeature groups within set")
	for i, set := range features.Sets() {
		var desc string
		if i == 0 {
			desc = set.Features[0].String()
		} else {
			prev := features.Sets()[i-1]
			added := set.Features[len(prev.Features):]
			names := make([]string, len(added))
			for j, f := range added {
				names[j] = f.String()
			}
			desc = fmt.Sprintf("model %s + %s", prev.Name, strings.Join(names, ", "))
		}
		fmt.Fprintf(w, "%s\t%s\n", set.Name, desc)
	}
	w.Flush()
	return b.String()
}

// Table3Row is one application's Table III entry.
type Table3Row struct {
	App          string
	Suite        workload.Suite
	Class        workload.Class
	MemIntensity float64 // measured baseline memory intensity (6-core)
}

// Table3 measures baseline memory intensity for every application on the
// 6-core machine.
func (s *Suite) Table3() ([]Table3Row, error) {
	ds, err := s.Dataset(6)
	if err != nil {
		return nil, err
	}
	var rows []Table3Row
	for _, a := range workload.All() {
		b, err := ds.Baseline(a.Name)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Table3Row{
			App:          a.Name,
			Suite:        a.Suite,
			Class:        a.Class,
			MemIntensity: b.MemIntensity,
		})
	}
	return rows, nil
}

// renderTable3 formats Table III.
func renderTable3(rows []Table3Row) string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "application\tsuite\tclass\tbaseline memory intensity")
	for _, r := range rows {
		suite := "(N)"
		if r.Suite == workload.PARSEC {
			suite = "(P)"
		}
		fmt.Fprintf(w, "%s %s\t%s\t%s\t%.3e\n", r.App, suite, r.Suite, r.Class, r.MemIntensity)
	}
	w.Flush()
	return b.String()
}

// Table4 renders Table IV: the machines.
func Table4() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "Intel processor\tnum. cores\tL3 cache\tfrequency range")
	for _, m := range simproc.Machines() {
		fmt.Fprintf(w, "%s\t%d\t%.0fMB\t%.2f-%.2f GHz\n",
			m.Name, m.Cores, m.LLCBytes/(1024*1024), m.PStates.MinFreq(), m.PStates.MaxFreq())
	}
	w.Flush()
	return b.String()
}

// Table5 renders Table V: the training-data campaign.
func Table5() string {
	var b strings.Builder
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "machine\ttargets\tco-apps\tnum. of co-locations\tP-state frequencies (GHz)")
	for _, m := range simproc.Machines() {
		plan := harness.DefaultPlan(m, 0)
		var freqs []string
		for _, st := range m.PStates.States() {
			freqs = append(freqs, fmt.Sprintf("%.2f", st.FreqGHz))
		}
		fmt.Fprintf(w, "%s\t%d\t%s\t%v\t%s\n",
			m.Name, len(plan.Targets), strings.Join(workload.Names(plan.CoApps), ","),
			plan.CoCounts, strings.Join(freqs, ","))
	}
	w.Flush()
	return b.String()
}

// Table6Row is one co-location count's Table VI entry.
type Table6Row struct {
	NumCG          int
	Seconds        float64 // measured canneal execution time
	Normalized     float64 // over the canneal baseline
	LinearFError   float64 // |percent error| of the linear-F prediction
	NeuralFError   float64 // |percent error| of the NN-F prediction
	LinearFPredict float64
	NeuralFPredict float64
}

// Table6Result is the full Table VI reproduction.
type Table6Result struct {
	BaselineSeconds float64
	Rows            []Table6Row
}

// Table6 reproduces Table VI: canneal co-located with increasing numbers
// of cg on the 12-core machine at P0, with linear-F and NN-F prediction
// accuracy. Models are trained on the machine's full Table V dataset.
func (s *Suite) Table6() (*Table6Result, error) {
	ds, err := s.Dataset(12)
	if err != nil {
		return nil, err
	}
	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	lin, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: setF, Seed: s.cfg.Seed}, ds, ds.Records)
	if err != nil {
		return nil, err
	}
	nn, err := core.Train(core.Spec{Technique: core.NeuralNet, FeatureSet: setF, Seed: s.cfg.Seed}, ds, ds.Records)
	if err != nil {
		return nil, err
	}

	proc, err := simproc.New(simproc.XeonE52697v2())
	if err != nil {
		return nil, err
	}
	canneal, err := workload.ByName("canneal")
	if err != nil {
		return nil, err
	}
	cg, err := workload.ByName("cg")
	if err != nil {
		return nil, err
	}
	base, err := proc.RunBaseline(canneal, 0)
	if err != nil {
		return nil, err
	}
	// Small measurement noise, as in data collection.
	noise := xrand.New(s.cfg.Seed + 1)

	var scs []harness.Scenario
	for k := 1; k <= proc.Spec().Cores-1; k++ {
		scs = append(scs, harness.Scenario{Target: canneal, CoApps: harness.Homogeneous(cg, k)})
	}
	measured, err := harness.CollectScenarios(proc, scs, s.cfg.NoiseSigma, noise)
	if err != nil {
		return nil, err
	}

	res := &Table6Result{BaselineSeconds: base.TargetSeconds}
	for _, m := range measured {
		actual := m.Seconds
		sc := features.Scenario{Target: m.Target, CoApps: m.CoApps, PState: 0}
		lp, err := lin.Predict(sc)
		if err != nil {
			return nil, err
		}
		np, err := nn.Predict(sc)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, Table6Row{
			NumCG:          len(m.CoApps),
			Seconds:        actual,
			Normalized:     actual / base.TargetSeconds,
			LinearFPredict: lp,
			NeuralFPredict: np,
			LinearFError:   100 * abs(lp-actual) / actual,
			NeuralFError:   100 * abs(np-actual) / actual,
		})
	}
	return res, nil
}

// percentErrors predicts each measured scenario with m and returns the
// absolute percent error of each against its measured time.
func percentErrors(m *core.Model, measured []harness.MixedRecord) ([]float64, error) {
	pes := make([]float64, len(measured))
	for i, r := range measured {
		pred, err := m.Predict(features.Scenario{Target: r.Target, CoApps: r.CoApps, PState: r.PState})
		if err != nil {
			return nil, err
		}
		pes[i] = 100 * abs(pred-r.Seconds) / r.Seconds
	}
	return pes, nil
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// renderTable6 formats the Table VI reproduction.
func renderTable6(t *Table6Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "canneal baseline execution time: %.1f s\n", t.BaselineSeconds)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "num. cg\texec time (s)\tnormalized exec time\tlinear-F MPE\tNN-F MPE")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "%d\t%.1f\t%.3f\t%.2f%%\t%.2f%%\n",
			r.NumCG, r.Seconds, r.Normalized, r.LinearFError, r.NeuralFError)
	}
	w.Flush()
	return b.String()
}

// FigurePoint is one model's data point in Figures 1–4.
type FigurePoint struct {
	Model      string // e.g. "linear-A"
	TrainError float64
	TestError  float64
}

// FigureResult is one of Figures 1–4.
type FigureResult struct {
	Figure  int
	Machine string
	Metric  string // "MPE" or "NRMSE"
	Points  []FigurePoint
}

// Figure produces Figures 1–4:
//
//	1: 6-core MPE     2: 12-core MPE
//	3: 6-core NRMSE   4: 12-core NRMSE
func (s *Suite) Figure(n int) (*FigureResult, error) {
	var cores int
	var metric string
	switch n {
	case 1:
		cores, metric = 6, "MPE"
	case 2:
		cores, metric = 12, "MPE"
	case 3:
		cores, metric = 6, "NRMSE"
	case 4:
		cores, metric = 12, "NRMSE"
	default:
		return nil, fmt.Errorf("experiments: figure %d not in 1-4", n)
	}
	evals, err := s.evaluations(cores)
	if err != nil {
		return nil, err
	}
	ds, err := s.Dataset(cores)
	if err != nil {
		return nil, err
	}
	res := &FigureResult{Figure: n, Machine: ds.Machine, Metric: metric}
	for _, e := range evals {
		p := FigurePoint{Model: e.Spec.String()}
		if metric == "MPE" {
			p.TrainError, p.TestError = e.TrainMPE, e.TestMPE
		} else {
			p.TrainError, p.TestError = e.TrainNRMSE, e.TestNRMSE
		}
		res.Points = append(res.Points, p)
	}
	return res, nil
}

// renderFigure formats a Figures 1–4 result.
func renderFigure(f *FigureResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure %d: %s prediction accuracy on %s (%s, %% error)\n",
		f.Figure, f.Metric, f.Machine, f.Metric)
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "model\ttraining error\ttesting error")
	for _, p := range f.Points {
		fmt.Fprintf(w, "%s\t%.2f%%\t%.2f%%\n", p.Model, p.TrainError, p.TestError)
	}
	w.Flush()
	return b.String()
}

// Figure5aRow is one application's execution-time distribution (6-core).
type Figure5aRow struct {
	App     string
	Summary stats.FiveNum
}

// Figure5a summarises each application's measured execution-time
// distribution on the 6-core machine.
func (s *Suite) Figure5a() ([]Figure5aRow, error) {
	ds, err := s.Dataset(6)
	if err != nil {
		return nil, err
	}
	byApp := map[string][]float64{}
	for _, r := range ds.Records {
		byApp[r.Target] = append(byApp[r.Target], r.Seconds)
	}
	names := make([]string, 0, len(byApp))
	for n := range byApp {
		names = append(names, n)
	}
	sort.Strings(names)
	var rows []Figure5aRow
	for _, n := range names {
		rows = append(rows, Figure5aRow{App: n, Summary: stats.Summarize(byApp[n])})
	}
	return rows, nil
}

// renderFigure5a formats Figure 5(a).
func renderFigure5a(rows []Figure5aRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5(a): execution-time distributions per application (6-core, seconds)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "application\tmin\tq1\tmedian\tq3\tmax\tn")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f\t%d\n",
			r.App, r.Summary.Min, r.Summary.Q1, r.Summary.Median, r.Summary.Q3, r.Summary.Max, r.Summary.N)
	}
	w.Flush()
	return b.String()
}

// Figure5bRow is one application's NN-F percent-error distribution.
type Figure5bRow struct {
	App     string
	Summary stats.FiveNum
	Within2 float64 // fraction of |error| ≤ 2 %
	Within5 float64 // fraction of |error| ≤ 5 %
}

// Figure5bResult is the Figure 5(b) reproduction.
type Figure5bResult struct {
	Rows []Figure5bRow
	// Overall fractions across all applications.
	Within2, Within5 float64
}

// Figure5b trains the NN-F model on repeated partitions of the 6-core
// dataset and summarises the signed percent error of the withheld
// predictions, grouped by target application.
func (s *Suite) Figure5b() (*Figure5bResult, error) {
	ds, err := s.Dataset(6)
	if err != nil {
		return nil, err
	}
	setF, err := features.SetByName("F")
	if err != nil {
		return nil, err
	}
	spec := core.Spec{Technique: core.NeuralNet, FeatureSet: setF}
	// A modest number of partitions yields thousands of test-point
	// errors, plenty for stable quartiles.
	parts := s.cfg.Partitions / 5
	if parts < 3 {
		parts = 3
	}
	partitioner, err := stats.NewPartitioner(len(ds.Records), 0.30, xrand.New(s.cfg.Seed+2))
	if err != nil {
		return nil, err
	}
	byApp := map[string][]float64{}
	var all []float64
	for pi := 0; pi < parts; pi++ {
		p := partitioner.Next()
		train := make([]harness.Record, len(p.Train))
		for i, j := range p.Train {
			train[i] = ds.Records[j]
		}
		spec.Seed = s.cfg.Seed + uint64(pi)
		m, err := core.Train(spec, ds, train)
		if err != nil {
			return nil, err
		}
		for _, j := range p.Test {
			r := ds.Records[j]
			pred, err := m.Predict(features.ScenarioFromRecord(r))
			if err != nil {
				return nil, err
			}
			pe := 100 * (pred - r.Seconds) / r.Seconds
			byApp[r.Target] = append(byApp[r.Target], pe)
			all = append(all, pe)
		}
	}
	names := make([]string, 0, len(byApp))
	for n := range byApp {
		names = append(names, n)
	}
	sort.Strings(names)
	res := &Figure5bResult{
		Within2: stats.FractionWithin(all, 2),
		Within5: stats.FractionWithin(all, 5),
	}
	for _, n := range names {
		res.Rows = append(res.Rows, Figure5bRow{
			App:     n,
			Summary: stats.Summarize(byApp[n]),
			Within2: stats.FractionWithin(byApp[n], 2),
			Within5: stats.FractionWithin(byApp[n], 5),
		})
	}
	return res, nil
}

// renderFigure5b formats Figure 5(b).
func renderFigure5b(f *Figure5bResult) string {
	var b strings.Builder
	fmt.Fprintln(&b, "Figure 5(b): NN model-F percent-error distributions per application (6-core)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "application\tq1\tmedian\tq3\t|err|<=2%\t|err|<=5%\tn")
	for _, r := range f.Rows {
		fmt.Fprintf(w, "%s\t%+.2f%%\t%+.2f%%\t%+.2f%%\t%.0f%%\t%.0f%%\t%d\n",
			r.App, r.Summary.Q1, r.Summary.Median, r.Summary.Q3,
			100*r.Within2, 100*r.Within5, r.Summary.N)
	}
	w.Flush()
	fmt.Fprintf(&b, "overall: %.0f%% of predictions within ±2%%, %.0f%% within ±5%%\n",
		100*f.Within2, 100*f.Within5)
	return b.String()
}

// PCARankRow is one feature's PCA importance (Section III-B).
type PCARankRow struct {
	Feature features.Feature
	Score   float64
}

// PCARanking runs the Section III-B feature-ranking PCA over the eight
// Table I features of the 6-core dataset.
func (s *Suite) PCARanking() ([]PCARankRow, error) {
	ds, err := s.Dataset(6)
	if err != nil {
		return nil, err
	}
	x, err := features.FullMatrix(ds, ds.Records)
	if err != nil {
		return nil, err
	}
	fit, err := pca.Fit(x)
	if err != nil {
		return nil, err
	}
	scores := fit.FeatureScore()
	rank := fit.Rank()
	rows := make([]PCARankRow, len(rank))
	for i, fi := range rank {
		rows[i] = PCARankRow{Feature: features.Feature(fi), Score: scores[fi]}
	}
	return rows, nil
}

// renderPCARanking formats the PCA feature ranking.
func renderPCARanking(rows []PCARankRow) string {
	var b strings.Builder
	fmt.Fprintln(&b, "PCA feature ranking (Section III-B)")
	w := tabwriter.NewWriter(&b, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "rank\tfeature\tvariance share")
	for i, r := range rows {
		fmt.Fprintf(w, "%d\t%s\t%.3f\n", i+1, r.Feature, r.Score)
	}
	w.Flush()
	return b.String()
}
