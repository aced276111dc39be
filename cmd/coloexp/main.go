// Command coloexp regenerates every table and figure of the paper's
// evaluation section on the simulated substrate.
//
// Usage:
//
//	coloexp [-run id,id,...] [-partitions N] [-seed S] [-noise SIGMA] [-svgdir DIR]
//
// -run selects experiments by id (experiments.Registry lists them); with
// no -run every experiment runs. Selected experiments print in registry
// order. Figures 1–4 run the full twelve-model repeated-random-subsampling
// evaluation and dominate the runtime; lower -partitions for a quick look.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"colocmodel/internal/experiments"
)

func main() {
	var o options
	flag.StringVar(&o.run, "run", "", "comma-separated experiment ids (default: all): "+strings.Join(ids(), ","))
	flag.IntVar(&o.partitions, "partitions", 100, "repeated random sub-sampling partitions (paper: 100)")
	flag.Uint64Var(&o.seed, "seed", 42, "experiment seed")
	flag.Float64Var(&o.noise, "noise", 0.01, "measurement noise sigma")
	flag.StringVar(&o.svgDir, "svgdir", "", "also write figures (and the Table VI sweep) as <id>.svg files to this directory")
	flag.Parse()
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "coloexp:", err)
		os.Exit(1)
	}
}

// options collects the command's parsed flags.
type options struct {
	run        string
	partitions int
	seed       uint64
	noise      float64
	svgDir     string
}

// ids lists every experiment id in registry order.
func ids() []string {
	var out []string
	for _, e := range experiments.Registry() {
		out = append(out, e.ID)
	}
	return out
}

// selection returns the experiments a -run list names, in registry order
// and each once; an empty list selects all of them.
func selection(list string) ([]experiments.Experiment, error) {
	all := experiments.Registry()
	if list == "" {
		return all, nil
	}
	valid := ids()
	want := map[string]bool{}
	for _, id := range strings.Split(list, ",") {
		if !slices.Contains(valid, id) {
			return nil, fmt.Errorf("unknown experiment %q (valid: %s)", id, strings.Join(valid, ","))
		}
		want[id] = true
	}
	var out []experiments.Experiment
	for _, e := range all {
		if want[e.ID] {
			out = append(out, e)
		}
	}
	return out, nil
}

func run(w io.Writer, o options) error {
	sel, err := selection(o.run)
	if err != nil {
		return err
	}
	var suite *experiments.Suite
	for _, e := range sel {
		if e.NeedsSuite && suite == nil {
			fmt.Fprintf(w, "collecting Table V datasets on both machines (seed %d)...\n\n", o.seed)
			suite, err = experiments.NewSuite(experiments.Config{Partitions: o.partitions, Seed: o.seed, NoiseSigma: o.noise})
			if err != nil {
				return err
			}
		}
		out, err := e.Compute(suite)
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "===", e.Title, "===")
		fmt.Fprintln(w, out.Text)
		if o.svgDir == "" || out.SVG == nil {
			continue
		}
		svg, err := out.SVG()
		if err != nil {
			return err
		}
		if err := writeSVG(w, o.svgDir, e.ID, svg); err != nil {
			return err
		}
	}
	return nil
}

// writeSVG writes one rendered figure to dir as <id>.svg, creating the
// directory if needed.
func writeSVG(w io.Writer, dir, id, svg string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, id+".svg")
	if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Fprintln(w, "wrote", path)
	return nil
}
