package experiments

import (
	"fmt"

	"colocmodel/internal/features"
	"colocmodel/internal/svgplot"
)

// figureSVG renders a Figures 1–4 result as an SVG line chart with the
// paper's layout: feature sets A–F on the x axis, four series (train and
// test error for each technique, training dashed).
func figureSVG(f *FigureResult) (string, error) {
	cats := make([]string, 0, len(features.Sets()))
	for _, s := range features.Sets() {
		cats = append(cats, s.Name)
	}
	pick := func(prefix string, train bool) []float64 {
		vals := make([]float64, len(cats))
		for i, c := range cats {
			name := prefix + "-" + c
			for _, p := range f.Points {
				if p.Model == name {
					if train {
						vals[i] = p.TrainError
					} else {
						vals[i] = p.TestError
					}
				}
			}
		}
		return vals
	}
	chart := &svgplot.LineChart{
		Title:      fmt.Sprintf("Figure %d: %s on %s", f.Figure, f.Metric, f.Machine),
		XLabel:     "model feature set",
		YLabel:     f.Metric + " (%)",
		Categories: cats,
		Series: []svgplot.Series{
			{Name: "linear train", Values: pick("linear", true), Dashed: true},
			{Name: "linear test", Values: pick("linear", false)},
			{Name: "neural train", Values: pick("neural-net", true), Dashed: true},
			{Name: "neural test", Values: pick("neural-net", false)},
		},
	}
	return chart.Render()
}

// figure5aSVG renders the execution-time distributions as a box plot.
func figure5aSVG(rows []Figure5aRow) (string, error) {
	p := &svgplot.BoxPlot{
		Title:  "Figure 5(a): execution-time distributions (6-core)",
		YLabel: "execution time (s)",
	}
	for _, r := range rows {
		p.Boxes = append(p.Boxes, svgplot.Box{
			Label: r.App,
			Min:   r.Summary.Min, Q1: r.Summary.Q1, Median: r.Summary.Median,
			Q3: r.Summary.Q3, Max: r.Summary.Max,
		})
	}
	return p.Render()
}

// figure5bSVG renders the NN-F percent-error distributions as a box plot
// with a zero reference line.
func figure5bSVG(f *Figure5bResult) (string, error) {
	p := &svgplot.BoxPlot{
		Title:    "Figure 5(b): NN model-F percent-error distributions (6-core)",
		YLabel:   "percent error",
		ZeroLine: true,
	}
	for _, r := range f.Rows {
		p.Boxes = append(p.Boxes, svgplot.Box{
			Label: r.App,
			Min:   r.Summary.Min, Q1: r.Summary.Q1, Median: r.Summary.Median,
			Q3: r.Summary.Q3, Max: r.Summary.Max,
		})
	}
	return p.Render()
}

// table6SVG renders the Table VI sweep as a line chart of normalised
// execution time vs. co-location count.
func table6SVG(t *Table6Result) (string, error) {
	cats := make([]string, len(t.Rows))
	norm := make([]float64, len(t.Rows))
	for i, r := range t.Rows {
		cats[i] = fmt.Sprint(r.NumCG)
		norm[i] = r.Normalized
	}
	chart := &svgplot.LineChart{
		Title:      "Table VI: canneal normalised execution time vs. cg co-location (12-core)",
		XLabel:     "number of co-located cg",
		YLabel:     "normalised execution time",
		Categories: cats,
		Series:     []svgplot.Series{{Name: "measured", Values: norm}},
	}
	return chart.Render()
}
