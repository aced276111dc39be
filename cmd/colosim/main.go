// Command colosim runs a single co-location scenario on a simulated
// multicore processor and reports the target's execution time, slowdown,
// and hardware counters.
//
// Usage:
//
//	colosim -machine 6core -target canneal -coapp cg -n 3 -pstate 0
//	colosim -machine 12core -target canneal -coapp cg -n 3 -json | jq .slowdown
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"

	"colocmodel/internal/simproc"
	"colocmodel/internal/workload"
)

func main() {
	var (
		machine  = flag.String("machine", "6core", "machine: 6core (Xeon E5649) or 12core (Xeon E5-2697v2)")
		target   = flag.String("target", "canneal", "target application (Table III name)")
		coapp    = flag.String("coapp", "cg", "co-located application")
		n        = flag.Int("n", 1, "number of co-located copies (0 = baseline run)")
		pstate   = flag.Int("pstate", 0, "P-state index (0 = highest frequency)")
		list     = flag.Bool("list", false, "list applications and machines, then exit")
		timeline = flag.Bool("timeline", false, "print a per-epoch timeline of the run")
		jsonOut  = flag.Bool("json", false, "emit the report as JSON (scripting parity with the coloserve HTTP API)")
	)
	flag.Parse()
	if err := run(*machine, *target, *coapp, *n, *pstate, *list, *timeline, *jsonOut); err != nil {
		fmt.Fprintln(os.Stderr, "colosim:", err)
		os.Exit(1)
	}
}

// report is the machine-readable form of one simulated run.
type report struct {
	Machine            string  `json:"machine"`
	PState             int     `json:"pstate"`
	FreqGHz            float64 `json:"freq_ghz"`
	Target             string  `json:"target"`
	Class              string  `json:"class"`
	CoApp              string  `json:"co_app,omitempty"`
	NumCoLocated       int     `json:"num_co_located"`
	BaselineSeconds    float64 `json:"baseline_seconds"`
	Seconds            float64 `json:"seconds"`
	Slowdown           float64 `json:"slowdown"`
	AvgMemLatencyNs    float64 `json:"avg_mem_latency_ns"`
	AvgDRAMUtilization float64 `json:"avg_dram_utilization"`
	AvgLLCShareBytes   float64 `json:"avg_llc_share_bytes"`
	Instructions       uint64  `json:"instructions"`
	LLCAccesses        uint64  `json:"llc_accesses"`
	LLCMisses          uint64  `json:"llc_misses"`
	CPI                float64 `json:"cpi"`
	MemoryIntensity    float64 `json:"memory_intensity"`
	CMPerCA            float64 `json:"cm_per_ca"`
	CAPerIns           float64 `json:"ca_per_ins"`
}

func run(machine, target, coapp string, n, pstate int, list, timeline, jsonOut bool) error {
	if list {
		fmt.Println("machines: 6core (Xeon E5649), 12core (Xeon E5-2697v2)")
		fmt.Println("applications:")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		for _, a := range workload.All() {
			fmt.Fprintf(w, "  %s\t%s\t%s\n", a.Name, a.Suite, a.Class)
		}
		fmt.Fprintln(w, "microbenchmarks:")
		for _, a := range workload.Microbenchmarks() {
			fmt.Fprintf(w, "  %s\t(kernel)\t%s\n", a.Name, a.Class)
		}
		return w.Flush()
	}
	if n < 0 {
		return fmt.Errorf("-n %d: the number of co-located copies cannot be negative", n)
	}
	spec, err := simproc.MachineByName(machine)
	if err != nil {
		return err
	}
	proc, err := simproc.New(spec)
	if err != nil {
		return err
	}
	tgt, err := appByName(target)
	if err != nil {
		return err
	}
	var co []workload.App
	if n > 0 {
		app, err := appByName(coapp)
		if err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			co = append(co, app)
		}
	}
	base, err := proc.RunBaseline(tgt, pstate)
	if err != nil {
		return err
	}
	run, err := proc.RunColocation(tgt, co, pstate, simproc.Options{Timeline: timeline})
	if err != nil {
		return err
	}
	if jsonOut {
		c := run.Target.Counts
		rep := report{
			Machine:            spec.Name,
			PState:             pstate,
			FreqGHz:            run.FreqGHz,
			Target:             tgt.Name,
			Class:              tgt.Class.String(),
			NumCoLocated:       n,
			BaselineSeconds:    base.TargetSeconds,
			Seconds:            run.TargetSeconds,
			Slowdown:           run.TargetSeconds / base.TargetSeconds,
			AvgMemLatencyNs:    run.AvgMemLatencyNs,
			AvgDRAMUtilization: run.AvgDRAMUtilization,
			AvgLLCShareBytes:   run.TargetAvgOccupancyBytes,
			Instructions:       c.Instructions,
			LLCAccesses:        c.LLCAccesses,
			LLCMisses:          c.LLCMisses,
			CPI:                c.CPI(),
			MemoryIntensity:    c.MemoryIntensity(),
			CMPerCA:            c.CMPerCA(),
			CAPerIns:           c.CAPerIns(),
		}
		if n > 0 {
			rep.CoApp = coapp
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(rep)
	}
	fmt.Printf("machine:           %s (P%d, %.2f GHz)\n", spec.Name, pstate, run.FreqGHz)
	fmt.Printf("target:            %s (%s)\n", tgt.Name, tgt.Class)
	if n > 0 {
		fmt.Printf("co-located:        %d x %s\n", n, coapp)
	} else {
		fmt.Printf("co-located:        none (baseline)\n")
	}
	fmt.Printf("baseline time:     %.1f s\n", base.TargetSeconds)
	fmt.Printf("execution time:    %.1f s\n", run.TargetSeconds)
	fmt.Printf("normalized time:   %.3f\n", run.TargetSeconds/base.TargetSeconds)
	fmt.Printf("avg memory latency: %.0f ns (unloaded %.0f ns)\n", run.AvgMemLatencyNs, spec.Mem.BaseLatencyNs)
	fmt.Printf("avg DRAM load:     %.0f%% of sustained bandwidth\n", 100*run.AvgDRAMUtilization)
	fmt.Printf("avg LLC share:     %.1f MB of %.0f MB\n",
		run.TargetAvgOccupancyBytes/(1024*1024), spec.LLCBytes/(1024*1024))
	c := run.Target.Counts
	fmt.Printf("counters:          %d instructions, %d LLC accesses, %d LLC misses\n",
		c.Instructions, c.LLCAccesses, c.LLCMisses)
	fmt.Printf("derived:           CPI %.2f, memory intensity %.3e, CM/CA %.3f, CA/INS %.4f\n",
		c.CPI(), c.MemoryIntensity(), c.CMPerCA(), c.CAPerIns())
	if timeline {
		fmt.Println("\nper-epoch timeline:")
		w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "  t (s)\ttarget IPS\tmiss ratio\tLLC share (MB)\tmem latency\tDRAM load")
		step := len(run.Timeline) / 16
		if step < 1 {
			step = 1
		}
		for i := 0; i < len(run.Timeline); i += step {
			s := run.Timeline[i]
			fmt.Fprintf(w, "  %.0f\t%.2e\t%.3f\t%.1f\t%.0f ns\t%.0f%%\n",
				s.ElapsedSeconds, s.TargetIPS, s.TargetMissRatio,
				s.TargetOccupancyBytes/(1024*1024), s.MemLatencyNs, 100*s.DRAMUtilization)
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return nil
}

// appByName resolves Table III applications and microbenchmark kernels.
func appByName(name string) (workload.App, error) {
	if a, err := workload.ByName(name); err == nil {
		return a, nil
	}
	if a, ok := workload.MicrobenchmarkByName(name); ok {
		return a, nil
	}
	return workload.App{}, fmt.Errorf("unknown application %q (see -list)", name)
}
