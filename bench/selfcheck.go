package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is BENCHMARK.json: the names, units, directions and bounds
// the driver holds this program to.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readSpec(path string) (*benchSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark description: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("decoding %s: %w", path, err)
	}
	return &spec, nil
}

// runSelfcheck runs every workload twice, interleaved, on the same code
// and seed, and prints for each end-to-end metric how much worse the
// second run read than the first, next to the bound. Past a bound it
// fails: the benchmark is then too noisy here to gate anything.
func runSelfcheck(seed uint64, secs int, tmp string, w io.Writer) error {
	spec, err := readSpec("BENCHMARK.json") // run.sh starts the program at the repository root
	if err != nil {
		return err
	}
	var rounds [2]map[string]map[string]float64
	for r := range rounds {
		rounds[r] = make(map[string]map[string]float64)
		for _, wl := range workloads {
			cfg := defaultConfig(wl, seed, secs, false)
			cfg.tmp = tmp
			rep, err := run(cfg, io.Discard)
			if err != nil {
				return fmt.Errorf("round %d workload %s: %w", r+1, wl, err)
			}
			if rep.failed > 0 {
				return fmt.Errorf("round %d workload %s: %d of %d operations failed: %v", r+1, wl, rep.failed, rep.attempted, rep.failures)
			}
			vals := make(map[string]float64, len(rep.metrics))
			for _, m := range rep.metrics {
				vals[m.name] = m.value
			}
			rounds[r][wl] = vals
			fmt.Fprintf(w, "selfcheck round=%d workload=%s attempted=%d failed=%d\n", r+1, wl, rep.attempted, rep.failed)
		}
	}
	past := 0
	fmt.Fprintf(w, "%-10s %-18s %14s %14s %9s %7s\n", "workload", "metric", "first", "second", "worse", "bound")
	for _, wl := range workloads {
		for _, m := range spec.EndToEnd {
			a, b := rounds[0][wl][m.Name], rounds[1][wl][m.Name]
			worse := (b - a) / math.Abs(a)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := ""
			if worse > m.Bound {
				verdict = "  PAST BOUND"
				past++
			}
			fmt.Fprintf(w, "%-10s %-18s %14.6g %14.6g %+8.1f%% %6.0f%%%s\n", wl, m.Name, a, b, 100*worse, 100*m.Bound, verdict)
		}
	}
	if past > 0 {
		return fmt.Errorf("%d metric readings moved past their bound between two runs of the same code", past)
	}
	return nil
}
