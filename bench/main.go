// Command colobench is the repository's benchmark: one process builds its
// target in process from a seed, replays a pre-generated op stream in a
// closed loop, checks every reply, and prints every metric by name with
// its unit. See README.md in this directory for what each workload and
// metric is for.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"time"
)

// config is one run. The command line sets workload, seed, seconds and
// trace; everything else is fixed by defaultConfig so two commits always
// do the same work (the smoke test shrinks it).
type config struct {
	workload string
	seed     uint64
	trace    bool
	traceOut string
	tmp      string
	clients  int // closed-loop clients of the predict and wide families

	measure time.Duration // measured time shared by the serving families
	warmup  time.Duration // unmeasured slice every family runs first
	rounds  int           // measured rounds of one slice per family
	window  time.Duration // length a slice is cut into windows of

	setupPasses   int // pipeline passes in a serving workload
	offlinePasses int // pipeline passes when offline is the workload
	partitions    int // random sub-sampling partitions per evaluation
	nullCalls     int
	wireCalls     int
}

var workloads = []string{"node_hot", "node_wide", "fleet_hot", "ingest_rw", "offline"}

func defaultConfig(workload string, seed uint64, secs int, trace bool) config {
	cfg := config{
		workload: workload,
		seed:     seed,
		trace:    trace,
		clients:  runtime.NumCPU(),
		measure:  time.Duration(secs) * time.Second,
		// Long enough for the wide family to fill the 65 536-entry
		// prediction cache, after which every row is a miss that evicts.
		warmup: 750 * time.Millisecond,
		rounds: 5,
		window: 250 * time.Millisecond,
		// Count-bound, so both commits do identical work. One partition
		// per evaluation keeps a pass under two seconds, so that four fit
		// beside the serving rounds on every workload; offline, which
		// owns the pipeline metrics, runs six.
		setupPasses:   4,
		offlinePasses: 6,
		partitions:    1,
		nullCalls:     100_000,
		wireCalls:     2000,
	}
	if trace {
		// Per-layer numbers carry no bound, so a traced run spends one
		// pipeline pass on set-up instead of four.
		cfg.setupPasses = 1
	}
	return cfg
}

// metric is one named number of the ledger.
type metric struct {
	name, unit string
	value      float64
}

// report is what a run prints.
type report struct {
	metrics   []metric
	attempted int
	failed    int
	failures  []string
}

func (r *report) set(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *report) count(attempted, failed int, failures []string) {
	r.attempted += attempted
	r.failed += failed
	r.failures = append(r.failures, failures...)
}

// validate refuses a ledger with a repeated name or a number that is not
// finite: a metric with no samples must fail the run, not read as zero.
func (r *report) validate() error {
	seen := make(map[string]bool, len(r.metrics))
	for _, m := range r.metrics {
		if seen[m.name] {
			return fmt.Errorf("metric %s emitted twice", m.name)
		}
		seen[m.name] = true
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v: no samples in the measured span", m.name, m.value)
		}
	}
	return nil
}

// summaryLine is the driver-facing last line of standard output.
func (r *report) summaryLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]value, len(r.metrics))}
	for _, m := range r.metrics {
		out.Metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(out)
}

func (r *report) print(w io.Writer) {
	for _, m := range r.metrics {
		fmt.Fprintf(w, "metric %-34s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "operations attempted=%d succeeded=%d failed=%d\n", r.attempted, r.attempted-r.failed, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
}

func main() {
	var (
		workload  = flag.String("workload", "", "workload to run: node_hot, node_wide, fleet_hot, ingest_rw or offline")
		seed      = flag.Uint64("seed", 1, "seed of every population, permutation, op mix, placement problem and sweep")
		secs      = flag.Int("seconds", 10, "measured seconds, shared by the serving families (the workload's own counts double)")
		trace     = flag.Int("trace", 0, "1 records spans and prints the per-layer metrics instead of the end-to-end ones")
		traceOut  = flag.String("trace-out", "", "with -trace 1, write the recorded spans to this file as JSON lines")
		tmp       = flag.String("tmp", "", "directory for model artefacts and the observation log (default: a new one under .bench_build/tmp)")
		selfcheck = flag.Bool("selfcheck", false, "run every workload twice and compare each end-to-end metric with its bound")
	)
	flag.Parse()
	if err := realMain(*workload, *seed, *secs, *trace, *traceOut, *tmp, *selfcheck); err != nil {
		fmt.Fprintln(os.Stderr, "colobench:", err)
		os.Exit(1)
	}
}

func realMain(workload string, seed uint64, secs, trace int, traceOut, tmp string, selfcheck bool) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if secs < 1 || (trace != 0 && trace != 1) {
		return errors.New("-seconds must be at least 1 and -trace 0 or 1")
	}
	if tmp == "" {
		if err := os.MkdirAll(".bench_build/tmp", 0o755); err != nil {
			return err
		}
		tmp = ".bench_build/tmp"
	}
	dir, err := os.MkdirTemp(tmp, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	printEnv(os.Stdout)
	if selfcheck {
		return runSelfcheck(seed, secs, dir, os.Stdout)
	}
	cfg := defaultConfig(workload, seed, secs, trace == 1)
	cfg.tmp, cfg.traceOut = dir, traceOut
	rep, err := run(cfg, os.Stdout)
	if err != nil {
		return err
	}
	rep.print(os.Stdout)
	line, err := rep.summaryLine()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(os.Stdout, "%s\n", line)
	return err
}
