package experiments

import (
	"fmt"
	"strings"
	"text/tabwriter"

	"colocmodel/internal/features"
	"colocmodel/internal/stats"
)

// FeatureCorrelations computes the Pearson correlation matrix of the
// eight Table I features across the 6-core training dataset. It explains
// the diminishing returns the paper observes beyond feature set C/E: the
// three co-application features are nearly collinear for homogeneous
// co-runners (all are k times a per-application constant), as are the
// three target-side features, so later sets add little *linear*
// information — the nonlinear interactions are what the neural network
// exploits. Rows and columns are in Table I order.
func (s *Suite) FeatureCorrelations() ([][]float64, error) {
	ds, err := s.Dataset(6)
	if err != nil {
		return nil, err
	}
	x, err := features.FullMatrix(ds, ds.Records)
	if err != nil {
		return nil, err
	}
	cols := make([][]float64, x.Cols)
	for j := 0; j < x.Cols; j++ {
		cols[j] = x.Col(j)
	}
	return stats.CorrelationMatrix(cols)
}

// renderFeatureCorrelations formats the correlation matrix.
func renderFeatureCorrelations(m [][]float64) string {
	fs := features.AllFeatures()
	var b strings.Builder
	fmt.Fprintln(&b, "Table I feature correlations over the 6-core training data")
	w := tabwriter.NewWriter(&b, 2, 4, 1, ' ', 0)
	fmt.Fprint(w, "feature")
	for _, f := range fs {
		fmt.Fprintf(w, "\t%s", shortName(f))
	}
	fmt.Fprintln(w)
	for i, f := range fs {
		fmt.Fprint(w, f.String())
		for j := range fs {
			fmt.Fprintf(w, "\t%+.2f", m[i][j])
		}
		fmt.Fprintln(w)
	}
	w.Flush()
	return b.String()
}

// shortName abbreviates feature names for matrix column headers.
func shortName(f features.Feature) string {
	switch f {
	case features.BaseExTime:
		return "base"
	case features.NumCoApp:
		return "num"
	case features.CoAppMem:
		return "coMem"
	case features.TargetMem:
		return "tMem"
	case features.CoAppCMCA:
		return "coCM"
	case features.CoAppCAINS:
		return "coCA"
	case features.TargetCMCA:
		return "tCM"
	case features.TargetCAINS:
		return "tCA"
	default:
		return f.String()
	}
}
