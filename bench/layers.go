package main

import (
	"slices"

	"colocmodel/internal/feedback"
	"colocmodel/internal/stats"
)

// layerInputs are the per-layer numbers measured outside the phases.
type layerInputs struct {
	nullUS, nullAllocs float64 // the caller against a no-op handler
	wireUS             float64 // keep-alive loopback round trip to a no-op handler
	runtime            runtimeDelta
	ops                float64 // operations the runtime delta covers
	// Cumulative counters of the fleet's router and the ingest log at
	// the end of the run; both started from zero.
	routerAfter routerCounters
	ingestAfter feedback.IngestStats
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// emitPerLayer sets the metrics of single layers from a traced run. Layer
// names are package names; README.md lists, for each, the end-to-end
// metric and workload it should move.
func emitPerLayer(rep *report, cfg config, its []*iteration, fams *families, in layerInputs) {
	col := func(f func(*iteration) float64) float64 { return stats.Median(column(its, f)) }

	// core, harness, simproc: the pipeline passes.
	rep.set("core.train_nn_ms", "ms", col(func(it *iteration) float64 { return it.trainNN * 1e3 }))
	rep.set("core.train_lin_ms", "ms", col(func(it *iteration) float64 { return it.trainLin * 1e3 }))
	rep.set("core.evaluate_nn_s", "s", col(func(it *iteration) float64 { return it.evalNN }))
	rep.set("core.evaluate_lin_s", "s", col(func(it *iteration) float64 { return it.evalLin }))
	rep.set("core.saveload_ms", "ms", col(func(it *iteration) float64 { return it.saveLoad * 1e3 }))
	rep.set("harness.collect_s", "s", col(func(it *iteration) float64 { return it.collect }))
	rep.set("simproc.colocation_run_us", "us", col(func(it *iteration) float64 { return it.collect * 1e6 / float64(it.runs) }))

	// node_hot: serve with the cache answering, core barely reached.
	nh := fams.nodeHot
	nhWin, flWin, unWin := nh.wins, fams.fleet.wins, fams.untraced.wins
	spans := nh.spans()
	var rows, cached, sampled int
	stage := map[string]float64{}
	for _, cl := range nh.clients {
		c := &cl.out
		rows += c.rows
		cached += c.cachedRows
		sampled += len(c.stageUS["decode"])
		for name, us := range c.stageUS {
			for _, v := range us {
				stage[name] += v
			}
		}
	}
	hitRatio := ratio(float64(cached), float64(rows))
	corePredictNS := stats.Median(durations(spans, spanCorePredict))
	servePredictUS := stats.Median(selfTimes(spans, spanServe, "")) / 1e3
	rep.set("core.predict_ns", "ns", corePredictNS)
	rep.set("serve.predict_self_us", "us", servePredictUS)
	rep.set("serve.cache_hit_ratio", "ratio", hitRatio)
	for _, name := range []string{"decode", "cache", "eval", "encode"} {
		rep.set("serve.stage."+name+"_us", "us", ratio(stage[name], float64(sampled)))
	}
	rep.set("tail.node_predict_p999_us", "us", stats.Median(over(nhWin, kindPredict, kindSummary.getP999))/1e3)
	rep.set("tail.node_predict_max_us", "us", slices.Max(over(nhWin, kindPredict, kindSummary.getMax))/1e3)

	// node_wide: the batch kernel and the placement search do real work.
	nw := fams.nodeWide
	spans = nw.spans()
	rows, cached = 0, 0
	var rounds, scenarios []float64
	for _, cl := range nw.clients {
		c := &cl.out
		rows += c.rows
		cached += c.cachedRows
		rounds = append(rounds, c.planRounds...)
		scenarios = append(scenarios, c.planScenarios...)
	}
	rep.set("core.batch_row_ns", "ns", stats.Median(durations(spans, spanCoreBatch))/batchRows)
	rep.set("serve.batch64_self_us", "us", stats.Median(selfTimes(spans, spanServe, spanCoreBatch))/1e3)
	rep.set("serve.placements_self_us", "us", stats.Median(selfTimes(spans, spanServe, spanOptimize))/1e3)
	rep.set("serve.cache_hit_ratio_wide", "ratio", ratio(float64(cached), float64(rows)))
	rep.set("placement.optimize_ms", "ms", stats.Median(durations(spans, spanOptimize))/1e6)
	rep.set("placement.scenarios_per_plan", "count", stats.Mean(scenarios))
	rep.set("placement.rounds_per_plan", "count", stats.Mean(rounds))

	// fleet_hot: the router and the loopback wire around a small serve.
	fl := fams.fleet
	hopUS := stats.Median(routerHops(fl.spans())) / 1e3
	var calls, maxCalls float64
	for _, n := range in.routerAfter.backend {
		calls += float64(n)
		maxCalls = max(maxCalls, float64(n))
	}
	attempted, _, _ := fl.counts()
	requests := float64(attempted)
	rep.set("cluster.hop_us", "us", hopUS)
	rep.set("cluster.self_us", "us", hopUS-in.wireUS)
	rep.set("cluster.backend_calls_per_req", "ratio", ratio(calls, requests))
	rep.set("cluster.hedge_ratio", "ratio", ratio(float64(in.routerAfter.hedges), requests))
	rep.set("cluster.coalesce_ratio", "ratio", ratio(float64(in.routerAfter.coalesced), requests))
	rep.set("cluster.backend_share_max", "ratio", ratio(maxCalls, calls))
	rep.set("wire.null_rtt_us", "us", in.wireUS)
	rep.set("tail.fleet_predict_p99_us", "us", stats.Median(over(flWin, kindPredict, kindSummary.getP99))/1e3)
	rep.set("tail.fleet_predict_p999_us", "us", stats.Median(over(flWin, kindPredict, kindSummary.getP999))/1e3)
	rep.set("tail.fleet_predict_max_us", "us", slices.Max(over(flWin, kindPredict, kindSummary.getMax))/1e3)

	// ingest_rw: group commit, fsync, compaction and retention under a
	// snapshot reader.
	ig := fams.ingest
	spans = ig.spans()
	var cohort []float64
	for _, c := range fams.ingestTarget.timed.commits {
		cohort = append(cohort, float64(c.Batch))
	}
	reader := &ig.extraOut
	st := in.ingestAfter
	rep.set("serve.observe64_self_us", "us", stats.Median(selfTimes(spans, spanServe, spanAppend))/1e3)
	rep.set("feedback.append_us", "us", stats.Median(durations(spans, spanAppend))/1e3)
	rep.set("feedback.queue_us", "us", stats.Median(durations(spans, spanQueue))/1e3)
	rep.set("feedback.write_us", "us", stats.Median(durations(spans, spanWrite))/1e3)
	rep.set("feedback.fsync_us", "us", stats.Median(durations(spans, spanFsync))/1e3)
	rep.set("feedback.cohort_records", "count", stats.Mean(cohort))
	rep.set("feedback.fsyncs_per_kobs", "count", ratio(float64(st.Fsyncs)*1e3, float64(st.Records)))
	rep.set("feedback.compaction_runs", "count", float64(st.CompactionRuns))
	rep.set("feedback.retention_dropped", "count", float64(st.RetentionDroppedRecords))
	rep.set("feedback.readall_ms", "ms", stats.Median(durations(spans, spanReadAll))/1e6)
	var perRecordUS []float64
	for _, r := range ig.measuredReads() {
		perRecordUS = append(perRecordUS, r.ns/1e3/float64(r.records))
	}
	rep.set("feedback.read_us_per_record", "us", stats.Median(perRecordUS))
	rep.set("feedback.read_failures", "count", float64(reader.readErrors))

	// runtime: the process over the workload's own measured span.
	rt := in.runtime
	rep.set("runtime.allocs_per_op", "count", ratio(rt.mallocs, in.ops))
	rep.set("runtime.bytes_per_op", "B", ratio(rt.bytes, in.ops))
	rep.set("runtime.gc_pause_ms_per_s", "ms/s", ratio(rt.pauseMS, rt.wallS))
	rep.set("runtime.cpu_s_per_kop", "s", ratio(rt.cpuS*1e3, in.ops))

	// bench: the instrument's own cost. On node_hot the layers' self
	// times plus the caller must account for most of the reply time.
	untracedRPS := stats.Median(over(unWin, kindPredict, kindSummary.getPerSec))
	tracedRPS := stats.Median(over(nhWin, kindPredict, kindSummary.getPerSec))
	rep.set("bench.null_call_us", "us", in.nullUS)
	rep.set("bench.null_call_allocs", "count", in.nullAllocs)
	rep.set("bench.cal_unit_ns", "ns", stats.Median(over(unWin, kindCal, kindSummary.getP50)))
	rep.set("bench.trace_overhead_pct", "%", 100*ratio(untracedRPS-tracedRPS, untracedRPS))
	rep.set("bench.node_hot_accounted_pct", "%",
		100*ratio(servePredictUS+(1-hitRatio)*corePredictNS/1e3+in.nullUS, stats.Median(over(unWin, kindPredict, kindSummary.getP50))/1e3))
}

// routerHops returns, for every routed request of the span that reached
// exactly one backend, the router span minus the backend span it was
// joined to by request ID: the cost of the hop. Coalesced followers (no
// backend call of their own) and hedged requests (two) are left to the
// ratios.
func routerHops(spans []span) []float64 {
	backend := make(map[uint64][]int64)
	for _, s := range spans {
		if s.Name == spanServe && s.Req != 0 {
			backend[s.Req] = append(backend[s.Req], s.dur())
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name != spanRouter {
			continue
		}
		if b := backend[s.Req]; len(b) == 1 {
			out = append(out, float64(s.dur()-b[0]))
		}
	}
	return out
}
