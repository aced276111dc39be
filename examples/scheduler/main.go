// Scheduler: the application the paper motivates — interference-aware job
// placement. Twelve jobs go onto three 6-core machines at P0 twice: once
// packed interference-blind (every core of a machine before the next),
// once by the model-guided optimizer under a 15 % slowdown QoS bound.
// Both plans are then realised on the simulator, showing how prediction
// turns into fewer QoS violations, and how many the model foresaw.
package main

import (
	"context"
	"fmt"
	"io"
	"log"
	"os"

	"colocmodel"
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(w io.Writer) error {
	spec := colocmodel.XeonE5649()

	// Train the predictor once from baseline + training data.
	fmt.Fprintln(w, "training neural-net-F predictor on", spec.Name, "...")
	ds, err := colocmodel.CollectDataset(colocmodel.DefaultPlan(spec, 7))
	if err != nil {
		return err
	}
	setF, err := colocmodel.FeatureSetByName("F")
	if err != nil {
		return err
	}
	model, err := colocmodel.TrainModel(colocmodel.ModelSpec{
		Technique:  colocmodel.NeuralNet,
		FeatureSet: setF,
		Seed:       7,
	}, ds, ds.Records)
	if err != nil {
		return err
	}

	// A job mix: one third memory hogs, one third moderate, one third
	// CPU bound, six to a line as pack-first fills the machines.
	jobs := []string{
		"cg", "cg", "streamcluster", "mg", "canneal", "sp",
		"ft", "canneal", "ep", "blackscholes", "ep", "blackscholes",
	}
	const qos = 1.15 // each job may slow down at most 15 %
	machine := colocmodel.PlacementMachine{Spec: spec, PStates: []int{0}}
	prob := colocmodel.PlacementProblem{
		Model:    model,
		Machines: []colocmodel.PlacementMachine{machine, machine, machine},
		Apps:     jobs,
		QoSBound: qos,
		Beam:     12,
		Seed:     7,
	}

	packed, err := colocmodel.PackFirst(context.Background(), prob)
	if err != nil {
		return err
	}
	optimised, err := colocmodel.Optimize(context.Background(), prob)
	if err != nil {
		return err
	}
	plans := []*colocmodel.PlacementPlan{packed, optimised.Plan}
	for i, name := range []string{"interference-oblivious (dense packing)", "interference-aware (model-guided)"} {
		got, err := colocmodel.Realise(prob, plans[i])
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "\n%s:\n", name)
		for mi, apps := range got.Assignments {
			if len(apps) > 0 {
				fmt.Fprintf(w, "  machine %d: %v\n", mi, apps)
			}
		}
		worst := 0.0
		for _, a := range got.Apps {
			worst = max(worst, a.Slowdown)
		}
		fmt.Fprintf(w, "  machines used:       %d\n", got.MachinesUsed)
		fmt.Fprintf(w, "  realised mean slowdown:  %.3f\n", got.TotalSlowdown/float64(len(jobs)))
		fmt.Fprintf(w, "  realised worst slowdown: %.3f\n", worst)
		fmt.Fprintf(w, "  QoS violations (> %.0f%%): %d of %d jobs realised, %d predicted\n",
			100*(qos-1), got.QoSViolations, len(jobs), plans[i].QoSViolations)
	}
	return nil
}
