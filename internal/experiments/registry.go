package experiments

import "fmt"

// Experiment is one entry of the paper's evaluation: a table, a figure,
// the PCA ranking or one of the extensions.
type Experiment struct {
	// ID selects the entry (coloexp -run) and names its SVG file, <ID>.svg.
	ID string
	// Title is the heading printed above the entry's text.
	Title string
	// NeedsSuite is false for the static tables, which collect no dataset.
	NeedsSuite bool
	// Compute runs the entry on the suite (nil for a static table).
	Compute func(*Suite) (*Output, error)
}

// Output is what one experiment computes.
type Output struct {
	// Text is the rendered table.
	Text string
	// SVG draws the entry as an SVG figure; nil if it draws none.
	SVG func() (string, error)
	// Values are the named statistics testdata/paper_golden.json pins;
	// nil for an entry the golden does not pin.
	Values []Value
	// result is the typed value Text renders; the package's tests check
	// its shape without computing it a second time.
	result any
}

// Value is one named statistic of an experiment's output.
type Value struct {
	Name string
	V    float64
}

// Registry returns every experiment, in the order coloexp prints them.
func Registry() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "Table I: Model Features", Compute: static(Table1)},
		{ID: "table2", Title: "Table II: Sets of Model Feature Groups", Compute: static(Table2)},
		{ID: "table4", Title: "Table IV: Multicore Processors Used for Validation", Compute: static(Table4)},
		{ID: "table5", Title: "Table V: Training Setup", Compute: static(Table5)},
		{ID: "table3", Title: "Table III: Benchmark Applications (measured baselines)", NeedsSuite: true,
			Compute: step((*Suite).Table3, renderTable3, nil, nil)},
		{ID: "pca", Title: "Section III-B: PCA Feature Ranking", NeedsSuite: true,
			Compute: step((*Suite).PCARanking, renderPCARanking, nil, pcaValues)},
		{ID: "table6", Title: "Table VI: canneal vs. increasing cg co-location (12-core)", NeedsSuite: true,
			Compute: step((*Suite).Table6, renderTable6, table6SVG, table6Values)},
		figure(1), figure(2), figure(3), figure(4),
		{ID: "figure5a", Title: "Figure 5(a)", NeedsSuite: true,
			Compute: step((*Suite).Figure5a, renderFigure5a, figure5aSVG, nil)},
		{ID: "figure5b", Title: "Figure 5(b)", NeedsSuite: true,
			Compute: step((*Suite).Figure5b, renderFigure5b, figure5bSVG, figure5bValues)},
		{ID: "generalize", Title: "Extension: out-of-sample generalization (Section IV-B3)", NeedsSuite: true,
			Compute: step((*Suite).Generalization, renderGeneralization, nil, nil)},
		{ID: "interactions", Title: "Ablation: linear models with interaction terms", NeedsSuite: true,
			Compute: step((*Suite).InteractionAblation, renderInteractionAblation, nil, nil)},
		{ID: "correlations", Title: "Feature correlation structure", NeedsSuite: true,
			Compute: step((*Suite).FeatureCorrelations, renderFeatureCorrelations, nil, nil)},
		{ID: "micro", Title: "Extension: microbenchmark transfer (validity boundary)", NeedsSuite: true,
			Compute: step((*Suite).MicrobenchmarkTransfer, renderMicrobenchmarkTransfer, nil, nil)},
		{ID: "phases", Title: "Extension: phase sensitivity (Section I claim)", NeedsSuite: true,
			Compute: step(func(s *Suite) ([]PhaseSensitivityRow, error) { return s.PhaseSensitivity(nil) }, renderPhaseSensitivity, nil, nil)},
		{ID: "mixed", Title: "Ablation: homogeneous vs. mixed training data", NeedsSuite: true,
			Compute: step(func(s *Suite) ([]MixedTrainingRow, error) { return s.MixedTraining(0) }, renderMixedTraining, nil, nil)},
		{ID: "scaling", Title: "Extension: problem-size scaling (validity boundary)", NeedsSuite: true,
			Compute: step((*Suite).ProblemSizeScaling, renderProblemSizeScaling, nil, nil)},
	}
}

// figure is the registry entry of one of Figures 1–4.
func figure(n int) Experiment {
	run := func(s *Suite) (*FigureResult, error) { return s.Figure(n) }
	return Experiment{ID: fmt.Sprint("figure", n), Title: fmt.Sprint("Figure ", n), NeedsSuite: true,
		Compute: step(run, renderFigure, figureSVG, figureValues)}
}

// static is the compute step of a table that needs no dataset.
func static(table func() string) func(*Suite) (*Output, error) {
	return func(*Suite) (*Output, error) { return &Output{Text: table()}, nil }
}

// step builds a compute step from a suite computation and the functions
// that render its result; svg and values may be nil.
func step[T any](run func(*Suite) (T, error), text func(T) string,
	svg func(T) (string, error), values func(T) []Value) func(*Suite) (*Output, error) {
	return func(s *Suite) (*Output, error) {
		r, err := run(s)
		if err != nil {
			return nil, err
		}
		out := &Output{Text: text(r), result: r}
		if svg != nil {
			out.SVG = func() (string, error) { return svg(r) }
		}
		if values != nil {
			out.Values = values(r)
		}
		return out, nil
	}
}

// table6Values pins the baseline and, per co-location count, the measured
// time and both models' predictions and errors.
func table6Values(t *Table6Result) []Value {
	vs := []Value{{"table6/baseline_seconds", t.BaselineSeconds}}
	for _, r := range t.Rows {
		p := fmt.Sprintf("table6/k=%02d/", r.NumCG)
		vs = append(vs, Value{p + "seconds", r.Seconds}, Value{p + "normalized", r.Normalized},
			Value{p + "linear_f_predict", r.LinearFPredict}, Value{p + "linear_f_error_pct", r.LinearFError},
			Value{p + "neural_f_predict", r.NeuralFPredict}, Value{p + "neural_f_error_pct", r.NeuralFError})
	}
	return vs
}

// figureValues pins every model's training and testing error.
func figureValues(f *FigureResult) []Value {
	var vs []Value
	for _, p := range f.Points {
		prefix := fmt.Sprintf("figure%d/%s/%s/", f.Figure, f.Metric, p.Model)
		vs = append(vs, Value{prefix + "train", p.TrainError}, Value{prefix + "test", p.TestError})
	}
	return vs
}

// figure5bValues pins the ±2 % and ±5 % shares, overall and per
// application.
func figure5bValues(f *Figure5bResult) []Value {
	vs := []Value{{"figure5b/overall/within2", f.Within2}, {"figure5b/overall/within5", f.Within5}}
	for _, r := range f.Rows {
		vs = append(vs, Value{"figure5b/" + r.App + "/within2", r.Within2}, Value{"figure5b/" + r.App + "/within5", r.Within5})
	}
	return vs
}

// pcaValues pins each feature's score, in rank order.
func pcaValues(rows []PCARankRow) []Value {
	vs := make([]Value, len(rows))
	for i, r := range rows {
		vs[i] = Value{fmt.Sprintf("pca/rank=%d/%s/score", i+1, r.Feature), r.Score}
	}
	return vs
}
