package main

import (
	"fmt"
	"io"
	"slices"
	"time"

	"colocmodel/internal/stats"
)

// A run always does the same things in the same order, whatever the
// workload: the pipeline (which is also set-up: it trains and registers
// the served model), then rounds of slices over the serving families. The
// workload decides which family gets an extra share of the measured time,
// and whether predicts go through the fleet; the other families
// still run, because the driver wants every end-to-end metric from every
// run. README.md says which workload owns which metric.
//
// Families take turns instead of running one after the other so that a
// disturbance of a second or two, which the calibration unit may not
// follow (a stalled disk, a burst of page faults), costs every family a
// slice and no family its whole measurement.

// families holds the serving families of a run; a nil entry does not run.
type families struct {
	nodeHot  *phase
	untraced *phase // node_hot without spans, traced runs only
	nodeWide *phase
	fleet    *phase // traced runs and the fleet_hot workload only
	ingest   *phase

	fleetTarget  *fleet
	ingestTarget *ingest
}

func (f *families) all() []*phase {
	var out []*phase
	for _, p := range []*phase{f.untraced, f.nodeHot, f.nodeWide, f.fleet, f.ingest} {
		if p != nil {
			out = append(out, p)
		}
	}
	return out
}

func run(cfg config, w io.Writer) (*report, error) {
	if !slices.Contains(workloads, cfg.workload) {
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", cfg.workload, workloads)
	}
	fmt.Fprintf(w, "run workload=%s seed=%d seconds=%g trace=%t clients=%d\n",
		cfg.workload, cfg.seed, cfg.measure.Seconds(), cfg.trace, cfg.clients)
	rep := &report{}
	clock := time.Now()
	var tr *tracer
	if cfg.trace {
		tr = &tracer{base: clock}
	}

	// Pipeline passes. Every pass is one operation; a pass whose checks
	// fail (re-loaded model differs, neural net not better than linear)
	// is a failed one. The first pass yields the served model; the others
	// are spread between the serving rounds, so that what the ruler beside
	// a pass does not follow of the machine's slow stretches
	// (calibrate.go) is mixed into every run alike.
	passes := cfg.setupPasses
	if cfg.workload == "offline" {
		passes = cfg.offlinePasses
	}
	var its []*iteration
	var pipelineRuntime runtimeDelta
	pass := func() error {
		before, start := readRuntime(), time.Now()
		it, err := pipelineIteration(cfg, len(its))
		if err != nil {
			return fmt.Errorf("pipeline pass %d: %w", len(its), err)
		}
		pipelineRuntime.add(before, readRuntime(), time.Since(start))
		its = append(its, it)
		rep.count(1, min(1, len(it.failed)), it.failed)
		return nil
	}
	if err := pass(); err != nil {
		return nil, err
	}

	fams, err := buildFamilies(cfg, its[0], clock, tr, w)
	if err != nil {
		return nil, err
	}
	err = runRounds(cfg, fams, func(round int) error {
		for len(its)-1 < (round+1)*(passes-1)/cfg.rounds {
			if err := pass(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var routerAfter routerCounters
	if fams.fleetTarget != nil {
		routerAfter = fams.fleetTarget.counters()
	}
	ingestAfter := fams.ingestTarget.store.Stats()
	for _, p := range fams.all() {
		if err := p.close(); err != nil {
			return nil, fmt.Errorf("closing %s: %w", p.name, err)
		}
		rep.count(p.counts())
	}
	if tr != nil {
		tr.joinByReq(spanServe, spanRouter)
	}
	reader := &fams.ingest.extraOut
	fmt.Fprintf(w, "ingest_rw snapshot reads=%d Store.All errors=%d (asked again; see README)\n", reader.attempted, reader.readErrors)
	for _, p := range fams.all() {
		p.cut(cfg.window)
		cal := stats.Median(over(p.wins, kindCal, kindSummary.getP50))
		fmt.Fprintf(w, "calibration family=%s traced=%t unit_ns=%.0f reference_ns=%.0f factor=%.3f\n", p.name, p.tr != nil, cal, p.calRef, p.calRef/cal)
	}

	// The instrument's own cost, and the guard that it stays small next
	// to the shortest reply it times.
	nullUS, nullAllocs := nullCall(cfg.nullCalls)
	if cfg.workload == "node_hot" {
		plain := fams.nodeHot
		if cfg.trace {
			plain = fams.untraced
		}
		if p50 := stats.Median(over(plain.wins, kindPredict, kindSummary.getP50)) / 1e3; nullUS > 0.15*p50 {
			return nil, fmt.Errorf("bench.null_call_us %.3f exceeds 15%% of node_hot's uncalibrated predict p50 %.3f us: the caller is too heavy to time this handler", nullUS, p50)
		}
	}

	if !cfg.trace {
		emitEndToEnd(rep, cfg, its, fams, w)
	} else {
		mainRuntime, mainOps := pipelineRuntime, float64(passes)
		for _, p := range fams.all() {
			if p.name == cfg.workload && p.tr != nil {
				mainRuntime, mainOps = p.runtime, float64(p.opsMeasured())
			}
		}
		wireUS, err := wireNullRTT(cfg.wireCalls)
		if err != nil {
			return nil, err
		}
		emitPerLayer(rep, cfg, its, fams, layerInputs{
			nullUS: nullUS, nullAllocs: nullAllocs, wireUS: wireUS, runtime: mainRuntime, ops: mainOps,
			routerAfter: routerAfter, ingestAfter: ingestAfter,
		})
		if cfg.traceOut != "" {
			if err := tr.write(cfg.traceOut); err != nil {
				return nil, err
			}
		}
	}
	if err := rep.validate(); err != nil {
		return nil, err
	}
	return rep, nil
}

// buildFamilies generates every op stream from the seed and starts the
// targets.
func buildFamilies(cfg config, served *iteration, clock time.Time, tr *tracer, w io.Writer) (*families, error) {
	hot, err := hotOps(served.model, cfg.seed, cfg.clients)
	if err != nil {
		return nil, err
	}
	wide := wideOps(served.model, cfg.seed, cfg.clients)
	observe, err := observeOps(served.model, cfg.seed)
	if err != nil {
		return nil, err
	}
	for _, named := range []struct {
		name string
		set  *opSet
	}{{"hot", hot}, {"wide", wide}, {"observe", observe}} {
		for c := range named.set.streams {
			fmt.Fprintf(w, "stream population=%s client=%d ops=%d sha256=%s\n", named.name, c, len(named.set.streams[c]), named.set.hash(c))
		}
	}

	env := phaseEnv{path: served.path, model: served.model, clock: clock, tmp: cfg.tmp}
	fams := &families{}
	traced := env
	traced.tr = tr
	if cfg.trace {
		if fams.untraced, err = nodePhase("node_hot", hot, env); err != nil {
			return nil, err
		}
	}
	if fams.nodeHot, err = nodePhase("node_hot", hot, traced); err != nil {
		return nil, err
	}
	if fams.nodeWide, err = nodePhase("node_wide", wide, traced); err != nil {
		return nil, err
	}
	if cfg.trace || cfg.workload == "fleet_hot" {
		if fams.fleet, fams.fleetTarget, err = fleetPhase(hot, traced); err != nil {
			return nil, err
		}
	}
	if fams.ingest, fams.ingestTarget, err = ingestPhase(observe, traced); err != nil {
		return nil, err
	}
	for _, p := range fams.all() {
		p.start()
	}
	return fams, nil
}

// familyShare splits the measured time by what each family's metrics
// need to come out steady: a cached predict stream gives ten thousand
// samples per window and the fleet's median barely moves (the single
// node's p99 is what needs the second share), while Store.All() completes
// twenty times a second and takes anything from one to three times its
// uncontended cost depending on whether the compactor cuts in.
var familyShare = map[string]int{"node_hot": 2, "node_wide": 2, "fleet_hot": 1, "ingest_rw": 4}

// ownShare is what the workload's own family gets on top.
const ownShare = 2

// runRounds warms every family up, then shares the measured time between
// them and hands it out in rounds of one slice per family. after runs
// once each round is over.
func runRounds(cfg config, fams *families, after func(round int) error) error {
	all := fams.all()
	share := func(p *phase) int {
		if p.name == cfg.workload && (p.tr != nil || !cfg.trace) {
			return familyShare[p.name] + ownShare
		}
		return familyShare[p.name]
	}
	total := 0
	for _, p := range all {
		p.slice(cfg.warmup, false)
		total += share(p)
	}
	for r := 0; r < cfg.rounds; r++ {
		for _, p := range all {
			p.slice(cfg.measure*time.Duration(share(p))/time.Duration(total*cfg.rounds), true)
		}
		if err := after(r); err != nil {
			return err
		}
	}
	return nil
}

func column(its []*iteration, f func(*iteration) float64) []float64 {
	out := make([]float64, len(its))
	for i, it := range its {
		out[i] = f(it)
	}
	return out
}

// emitEndToEnd sets the metrics a user of the system would see. Serving
// times and rates are medians over windows, each window brought to the
// reference machine by its calibration factor; the uncalibrated medians
// are printed beside them. Pipeline times are brought there by the ruler
// that ran beside each pass, and averaged over the passes between the
// quartiles.
func emitEndToEnd(rep *report, cfg config, its []*iteration, fams *families, w io.Writer) {
	predict := fams.nodeHot
	if cfg.workload == "fleet_hot" {
		predict = fams.fleet
	}
	timeOf := func(name, unit string, p *phase, k opKind, field func(kindSummary) float64, perUnit float64) {
		rep.set(name, unit, stats.Median(refTimes(p.wins, p.calRef, k, field))/perUnit)
		fmt.Fprintf(w, "uncalibrated %-18s %14.6g %s\n", name, stats.Median(over(p.wins, k, field))/perUnit, unit)
	}
	rateOf := func(name string, p *phase, k opKind, perOp float64) {
		rep.set(name, "1/s", stats.Median(refRates(p.wins, p.calRef, k))*perOp)
		fmt.Fprintf(w, "uncalibrated %-18s %14.6g 1/s\n", name, stats.Median(over(p.wins, k, kindSummary.getPerSec))*perOp)
	}
	timeOf("predict_p50_us", "us", predict, kindPredict, kindSummary.getP50, 1e3)
	// The tail is always the single node's: behind the router p99 sits at
	// twenty times p50 and moves by half from run to run, which no bound
	// can gate. The fleet's tail is in the per-layer ledger (tail.*).
	timeOf("predict_p99_us", "us", fams.nodeHot, kindPredict, kindSummary.getP99, 1e3)
	rateOf("predict_rps", predict, kindPredict, 1)

	timeOf("batch_p50_us", "us", fams.nodeWide, kindBatch, kindSummary.getP50, 1e3)
	rateOf("batch_rows_per_s", fams.nodeWide, kindBatch, batchRows)
	timeOf("placement_p50_ms", "ms", fams.nodeWide, kindPlacement, kindSummary.getP50, 1e6)

	timeOf("observe_p50_us", "us", fams.ingest, kindObserve, kindSummary.getP50, 1e3)
	rateOf("observe_per_s", fams.ingest, kindObserve, batchRows)
	var readRef, readRaw []float64
	for _, r := range fams.ingest.measuredReads() {
		readRef, readRaw = append(readRef, r.refMS()), append(readRaw, r.ns/1e6)
	}
	rep.set("readall_p50_ms", "ms", stats.Median(readRef))
	fmt.Fprintf(w, "uncalibrated %-18s %14.6g ms\n", "readall_p50_ms", stats.Median(readRaw))

	stageOf := func(name string, ref, raw func(*iteration) float64) {
		rep.set(name, "s", midMean(column(its, ref)))
		fmt.Fprintf(w, "uncalibrated %-18s %14.6g s\n", name, midMean(column(its, raw)))
	}
	stageOf("collect_s", func(it *iteration) float64 { return it.refCollect }, func(it *iteration) float64 { return it.collect })
	stageOf("evaluate_s", func(it *iteration) float64 { return it.refEvaluate }, func(it *iteration) float64 { return it.evalNN + it.evalLin })
	stageOf("train_s", func(it *iteration) float64 { return it.refTrain }, func(it *iteration) float64 { return it.trainNN })
	stageOf("setup_s", func(it *iteration) float64 { return it.refSetup }, func(it *iteration) float64 { return it.collect + it.trainNN + it.saveLoad })
	rep.set("nnf_test_mpe_pct", "%", stats.Mean(column(its, func(it *iteration) float64 { return it.mpeNN })))
}
