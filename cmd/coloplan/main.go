// Command coloplan runs the co-location aware placement optimizer
// offline: a JSON problem in (the same wire shape POST /v1/placements
// accepts), an optimized plan plus per-app predicted-degradation table
// out. The search is fully seeded — the same artefact, problem and
// -seed always print the same plan.
//
// Usage:
//
//	colotrain -machine 6core -savemodel model6.json
//	coloplan -model model6.json < problem.json
//	coloplan -model model6.json -input problem.json -seed 7 -json
//	coloplan -demo -apps cg,ep,mg,cg,ep,mg -count 3      # no artefact needed
//
// where problem.json looks like
//
//	{"machines": [{"count": 4}], "apps": ["cg", "ep", "mg", "cg"],
//	 "max_slowdown": 2.5, "beam": 12, "seed": 11}
//
// Flags -seed, -beam, -rounds, -objective and -qos override the
// corresponding fields of the input document when set, so a committed
// problem file can be re-planned under a different seed or objective
// without editing it.
//
// Exit status: 0 on success, 1 on usage or input errors, 2 when the
// best plan still violates the QoS bound (the plan is printed anyway —
// the violation is the finding).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"
	"time"

	"colocmodel/internal/core"
	"colocmodel/internal/features"
	"colocmodel/internal/harness"
	"colocmodel/internal/placement"
	"colocmodel/internal/serve"
	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

func main() {
	var (
		modelPath = flag.String("model", "", "trained model artefact (see colotrain -savemodel)")
		demo      = flag.Bool("demo", false, "train a small in-process demo model instead of loading -model")
		input     = flag.String("input", "-", "problem JSON file (\"-\" = stdin; unused when -apps is set)")
		apps      = flag.String("apps", "", "comma-separated pending apps (bypasses -input)")
		count     = flag.Int("count", 2, "fleet size when -apps is used (default-machine fleet)")
		seed      = flag.Uint64("seed", 0, "local-search seed (overrides the input document)")
		beam      = flag.Int("beam", 0, "candidate moves sampled per round, 0 = greedy only (overrides input)")
		rounds    = flag.Int("rounds", 0, "local-search round cap (overrides input)")
		objective = flag.String("objective", "", "slowdown or energy (overrides input)")
		qos       = flag.Float64("qos", 0, "max per-app interference slowdown, 0 = unbounded (overrides input)")
		timeout   = flag.Duration("timeout", 30*time.Second, "search budget; on expiry the best plan so far is printed")
		jsonOut   = flag.Bool("json", false, "emit the result as JSON instead of tables")
	)
	flag.Parse()
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	code, err := run(os.Stdout, *modelPath, *demo, *input, *apps, *count, *seed, *beam, *rounds,
		*objective, *qos, *timeout, *jsonOut, set)
	if err != nil {
		fmt.Fprintln(os.Stderr, "coloplan:", err)
	}
	os.Exit(code)
}

// Offline planning takes the serving tier's request documents but not its
// per-request limits (256 apps, 64 machines, beam 64 by default): these
// only stop a runaway document.
const (
	maxApps     = 1 << 16
	maxMachines = 1 << 12
	maxBeam     = 1 << 10
)

func run(out io.Writer, modelPath string, demo bool, input, apps string, count int, seed uint64,
	beam, rounds int, objective string, qos float64, timeout time.Duration,
	jsonOut bool, set map[string]bool) (int, error) {

	m, err := loadModel(modelPath, demo)
	if err != nil {
		return 1, err
	}
	req, err := readProblem(input, apps, count)
	if err != nil {
		return 1, err
	}
	// Flag overrides, only when explicitly set on the command line.
	if set["seed"] {
		req.Seed = seed
	}
	if set["beam"] {
		req.Beam = beam
	}
	if set["rounds"] {
		req.MaxRounds = rounds
	}
	if set["objective"] {
		req.Objective = objective
	}
	if set["qos"] {
		req.MaxSlowdown = qos
	}
	if len(req.Machines) == 0 {
		req.Machines = []serve.PlacementMachineRequest{{Count: 2}}
	}
	prob, err := serve.PlacementProblem(req, m, maxApps, maxMachines, maxBeam)
	if err != nil {
		return 1, err
	}

	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	res, err := placement.Optimize(ctx, prob, nil)
	if err != nil {
		return 1, err
	}

	if jsonOut {
		enc := json.NewEncoder(out)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return 1, err
		}
	} else if realised, err := placement.Realise(prob, res.Plan); err != nil {
		return 1, err
	} else {
		printPlan(out, prob, res, realised)
	}
	if res.Plan.QoSViolations > 0 {
		return 2, fmt.Errorf("%d app(s) exceed the QoS bound %.2f", res.Plan.QoSViolations, prob.QoSBound)
	}
	return 0, nil
}

// loadModel reads the artefact, or trains the small demo model when
// demo is set.
func loadModel(path string, demo bool) (*core.Model, error) {
	if demo {
		cg, _ := workload.ByName("cg")
		ep, _ := workload.ByName("ep")
		mg, _ := workload.ByName("mg")
		ds, err := harness.Collect(harness.Plan{
			Spec:       simproc.XeonE5649(),
			Targets:    []workload.App{cg, ep, mg},
			CoApps:     []workload.App{cg, ep},
			CoCounts:   []int{1, 2},
			PStates:    []int{0, 1},
			NoiseSigma: 0.01,
			Seed:       7,
		})
		if err != nil {
			return nil, fmt.Errorf("demo sweep: %w", err)
		}
		fs, err := features.SetByName("F")
		if err != nil {
			return nil, err
		}
		m, err := core.Train(core.Spec{Technique: core.Linear, FeatureSet: fs, Seed: 1}, ds, ds.Records)
		if err != nil {
			return nil, fmt.Errorf("demo training: %w", err)
		}
		return m, nil
	}
	if path == "" {
		return nil, fmt.Errorf("no model: pass -model <artefact> or -demo")
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	m, err := core.LoadModel(f)
	if err != nil {
		return nil, fmt.Errorf("loading %s: %w", path, err)
	}
	return m, nil
}

// readProblem obtains the request document: synthesized from -apps, or
// decoded (strictly, like the server) from the input file or stdin.
func readProblem(input, apps string, count int) (serve.PlacementsRequest, error) {
	var req serve.PlacementsRequest
	if apps != "" {
		for _, a := range strings.Split(apps, ",") {
			if a = strings.TrimSpace(a); a != "" {
				req.Apps = append(req.Apps, a)
			}
		}
		req.Machines = []serve.PlacementMachineRequest{{Count: count}}
		req.MaxSlowdown = 2.5
		req.Beam = 12
		return req, nil
	}
	var raw []byte
	var err error
	if input == "-" {
		raw, err = io.ReadAll(os.Stdin)
	} else {
		raw, err = os.ReadFile(input)
	}
	if err != nil {
		return req, err
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("decoding problem: %w", err)
	}
	return req, nil
}

// printPlan renders the per-machine and per-app tables, the plan as
// realised on the simulator beside the prediction, and the search
// account.
func printPlan(w io.Writer, prob placement.Problem, res *placement.Result, realised *placement.Plan) {
	pl := res.Plan
	names := machineNames(prob)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "machine\tpstate\tapps")
	for i, as := range pl.Assignments {
		if len(as) == 0 {
			continue
		}
		fmt.Fprintf(tw, "%s\tP%d\t%s\n", names[i], pl.PStates[i], strings.Join(as, " "))
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintln(tw, "app\tmachine\tpstate\tbaseline_s\tpredicted_s\tslowdown\trealised_slowdown\tdegradation")
	violates := func(ap placement.AppPlacement) bool { return prob.QoSBound > 0 && ap.Slowdown > prob.QoSBound }
	missed, falseAlarms := 0, 0
	for i, ap := range pl.Apps {
		mark := ""
		if violates(ap) {
			mark = " !QoS"
		}
		switch got := violates(realised.Apps[i]); {
		case got && !violates(ap):
			missed++
		case !got && violates(ap):
			falseAlarms++
		}
		fmt.Fprintf(tw, "%s\t%s\tP%d\t%.3f\t%.3f\t%.3f\t%.3f\t%.3f%s\n",
			ap.App, names[ap.Machine], ap.PState,
			ap.BaselineSeconds, ap.PredictedSeconds, ap.Slowdown, realised.Apps[i].Slowdown, ap.Degradation, mark)
	}
	tw.Flush()
	fmt.Fprintln(w)
	fmt.Fprintf(w, "objective %s = %.4f  (degradation %.4f, slowdown %.4f, energy %.1f J)\n",
		prob.Objective, pl.Objective, pl.TotalDegradation, pl.TotalSlowdown, pl.TotalEnergyJ)
	fmt.Fprintf(w, "machines used %d/%d, qos violations %d\n",
		pl.MachinesUsed, len(prob.Machines), pl.QoSViolations)
	fmt.Fprintf(w, "realised on the simulator: objective %s = %.4f, qos violations %d (missed %d, false alarms %d)\n",
		prob.Objective, realised.Objective, realised.QoSViolations, missed, falseAlarms)
	st := res.Stats
	state := "round-capped"
	switch {
	case st.TimedOut:
		state = "timed out"
	case st.Converged:
		state = "converged"
	}
	fmt.Fprintf(w, "search %s: %d rounds, %d improvements, %d scenarios predicted\n",
		state, st.Rounds, st.Improvements, st.Scenarios)
}

// machineNames applies the problem's naming default ("m%d") for the
// tables.
func machineNames(prob placement.Problem) []string {
	names := make([]string, len(prob.Machines))
	for i, mc := range prob.Machines {
		names[i] = mc.Name
		if names[i] == "" {
			names[i] = fmt.Sprintf("m%d", i)
		}
	}
	return names
}
