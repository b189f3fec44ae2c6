package main

import (
	"fmt"
	"sort"
	"strings"

	"goldmine/internal/telemetry"
)

// tracer returns the pass's tracer; a nil memTrace is an untraced pass.
func (mt *memTrace) tracer() *telemetry.Tracer {
	if mt == nil {
		return nil
	}
	return mt.tr
}

// traceAgg accumulates the traced passes of one run.
type traceAgg struct {
	led      *ledger
	passes   int
	counters map[string]int64
	layer    map[string]float64
	callMS   map[string]float64
	wallMS   float64 // Σ traced pass wall
	callsMS  float64 // Σ wall of the timed calls
	dropped  int64
	workers  int
}

func newTraceAgg() *traceAgg {
	return &traceAgg{led: newLedger(), counters: map[string]int64{}, layer: map[string]float64{}, callMS: map[string]float64{}}
}

// add folds one traced pass in. It rejects a journal that dropped events or
// whose span tree does not resolve.
func (a *traceAgg) add(mt *memTrace, pr *passResult, workers int) error {
	j, snap, err := mt.finish()
	if err != nil {
		return err
	}
	a.dropped += j.dropped
	if j.dropped > 0 {
		return fmt.Errorf("journal dropped %d of %d events", j.dropped, j.dropped+j.written)
	}
	if err := a.led.add(j.spans); err != nil {
		return err
	}
	a.passes++
	a.workers = workers
	for k, v := range snap.Counters {
		a.counters[k] += v
	}
	for k, v := range pr.layer {
		a.layer[k] += v
	}
	for k, v := range pr.callMS {
		a.callMS[k] += v
	}
	a.wallMS += pr.wall.Seconds() * 1e3
	a.callsMS += pr.calls.Seconds() * 1e3
	return nil
}

// busyMS is the traced busy time: the timed calls' wall time plus the time
// their work ran on more than one worker at once.
func (a *traceAgg) busyMS() float64 {
	return a.callsMS + float64(a.led.overlapUS)/1e3
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// layerMetric is one per-layer metric: its name as BENCHMARK.json lists it,
// its unit, and how it is computed from the traced passes. Times and counts
// are per traced pass.
type layerMetric struct {
	name, unit string
	value      func(a *traceAgg, rs *runState) float64
}

func selfPer(span string) func(*traceAgg, *runState) float64 {
	return func(a *traceAgg, _ *runState) float64 { return a.led.selfMS(span) / float64(a.passes) }
}

func spansPer(span string) func(*traceAgg, *runState) float64 {
	return func(a *traceAgg, _ *runState) float64 { return float64(a.led.count(span)) / float64(a.passes) }
}

func counterPer(name string) func(*traceAgg, *runState) float64 {
	return func(a *traceAgg, _ *runState) float64 { return float64(a.counters[name]) / float64(a.passes) }
}

func layerPer(name string) func(*traceAgg, *runState) float64 {
	return func(a *traceAgg, _ *runState) float64 { return a.layer[name] / float64(a.passes) }
}

func callPer(name string) func(*traceAgg, *runState) float64 {
	return func(a *traceAgg, _ *runState) float64 { return a.callMS[name] / float64(a.passes) }
}

// layerMetrics is the per-layer metric set, grouped by module. NOTES.md
// lists which end-to-end metric each should move, on which workload.
var layerMetrics = []layerMetric{
	{"rtl.elaborate_ms", "ms", func(_ *traceAgg, rs *runState) float64 { return rs.elabMS }},

	{"simc.compile_ms", "ms", selfPer("sim.compile")},
	{"simc.batch_ms", "ms", selfPer("sim.batch")},
	{"simc.batch_calls", "count", spansPer("sim.batch")},
	{"sim.run_ms", "ms", selfPer("sim.run")},
	{"sim.cycles", "count", counterPer("sim.cycles")},

	{"core.engine_build_ms", "ms", callPer("engine_build")},
	{"core.mine_run_self_ms", "ms", selfPer("mine.run")},

	{"mine.output_self_ms", "ms", selfPer("mine.output")},
	{"mine.iteration_self_ms", "ms", selfPer("mine.iteration")},
	{"mine.tree_update_ms", "ms", selfPer("mine.tree_update")},
	{"mine.candidates_ms", "ms", selfPer("mine.candidates")},
	{"mine.ctx_feedback_ms", "ms", selfPer("mine.ctx_feedback")},
	{"mine.iterations", "count", counterPer("mine.iterations")},
	{"mine.ctx_found", "count", counterPer("mine.ctx_found")},
	{"mine.proved", "count", counterPer("mine.proved")},

	{"sched.cache_probe_ms", "ms", selfPer("sched.cache_probe")},
	{"sched.cache_hit_rate", "ratio", func(a *traceAgg, _ *runState) float64 {
		return ratio(a.layer["sched.hits"], a.layer["sched.probes"])
	}},
	{"sched.dedups", "count", counterPer("sched.dedups")},
	{"sched.steals", "count", counterPer("sched.steals")},
	{"sched.busy_frac", "ratio", func(a *traceAgg, _ *runState) float64 {
		return ratio(a.led.durMS("mine.output"), a.wallMS*float64(a.workers))
	}},

	{"mc.check_ms", "ms", selfPer("mc.check")},
	{"mc.checks", "count", counterPer("mc.checks")},
	{"mc.explicit_ms", "ms", selfPer("mc.explicit")},
	{"mc.explicit_calls", "count", spansPer("mc.explicit")},
	{"mc.explicit_window_sims", "count", counterPer("mc.explicit_window_sims")},
	{"mc.bmc_frame_ms", "ms", selfPer("mc.bmc_frame")},
	{"mc.induction_step_ms", "ms", selfPer("mc.induction_step")},
	{"mc.ctx_canon_ms", "ms", selfPer("mc.ctx_canon")},
	{"mc.ctx_canon_calls", "count", spansPer("mc.ctx_canon")},
	{"mc.decided_frac", "ratio", func(a *traceAgg, _ *runState) float64 {
		return ratio(float64(a.counters["mc.proved"]+a.counters["mc.falsified"]), float64(a.counters["mc.checks"]))
	}},
	{"mc.unknown", "count", counterPer("mc.unknown")},
	{"mc.degraded", "count", counterPer("mc.degraded")},

	{"mc.reach_ms", "ms", selfPer("mc.reach")},
	{"mc.reach_frame_ms", "ms", selfPer("mc.reach_frame")},
	{"mc.reach_induction_ms", "ms", selfPer("mc.reach_induction")},
	{"mc.reach_calls", "count", layerPer("mc.reach_calls")},
	{"mc.reach_solves", "count", layerPer("mc.reach_solves")},

	{"sat.solve_ms", "ms", selfPer("sat.solve")},
	{"sat.solves", "count", counterPer("sat.solves")},
	{"sat.propagations", "count", counterPer("sat.propagations")},
	{"sat.conflicts", "count", counterPer("sat.conflicts")},
	{"sat.decisions", "count", counterPer("sat.decisions")},
	{"sat.restarts", "count", counterPer("sat.restarts")},
	{"sat.conflicts_per_solve", "ratio", func(a *traceAgg, _ *runState) float64 {
		return ratio(float64(a.counters["sat.conflicts"]), float64(a.counters["sat.solves"]))
	}},

	{"stimgen.close_ms", "ms", callPer("close_coverage")},
	{"directed.run_self_ms", "ms", selfPer("directed.run")},
	{"directed.wave_ms", "ms", selfPer("directed.wave")},
	{"directed.hole_ms", "ms", selfPer("directed.hole")},
	{"directed.iteration_ms", "ms", selfPer("directed.iteration")},
	{"directed.compact_ms", "ms", selfPer("directed.compact")},
	{"holes.initial", "count", layerPer("holes.initial")},
	{"stimgen.holes_sat", "count", layerPer("stimgen.holes_sat")},
	{"stimgen.holes_fuzz", "count", layerPer("stimgen.holes_fuzz")},
	{"stimgen.holes_shared", "count", layerPer("stimgen.holes_shared")},
	{"stimgen.holes_dead", "count", layerPer("stimgen.holes_dead")},
	{"stimgen.holes_deferred", "count", layerPer("stimgen.holes_deferred")},
	{"stimgen.shared_frac", "ratio", func(a *traceAgg, _ *runState) float64 {
		return ratio(a.layer["stimgen.holes_shared"], closedHoles(a))
	}},
	{"stimgen.solves_per_closed_hole", "ratio", func(a *traceAgg, _ *runState) float64 {
		return ratio(a.layer["mc.reach_solves"], closedHoles(a))
	}},
	{"stimgen.evicted", "count", layerPer("stimgen.evicted")},
	{"stimgen.readmitted", "count", layerPer("stimgen.readmitted")},

	{"corpus.store_append_ms", "ms", func(a *traceAgg, _ *runState) float64 {
		return (a.callMS["ingest_new"] - a.layer["corpus.mem_ingest_ms"]) / float64(a.passes)
	}},
	{"corpus.open_store_ms", "ms", callPer("open_store")},
	{"corpus.ingest_new_ms", "ms", callPer("ingest_new")},
	{"corpus.ingest_dup_ms", "ms", callPer("ingest_dup")},
	{"corpus.close_store_ms", "ms", callPer("close_store")},
	{"corpus.load_ms", "ms", callPer("load")},
	{"corpus.clusters_ms", "ms", callPer("clusters")},
	{"corpus.reduce_ms", "ms", callPer("reduce")},
	{"corpus.reduce_self_ms", "ms", selfPer(benchPrefix + "reduce")},
	{"corpus.entries", "count", layerPer("corpus.entries")},
	{"corpus.dup_hits", "count", layerPer("corpus.dup_hits")},
	{"corpus.collapsed", "count", layerPer("corpus.collapsed")},
	{"corpus.candidates", "count", layerPer("corpus.candidates")},
	{"corpus.vacuous", "count", layerPer("corpus.vacuous")},
	{"corpus.select_frac", "ratio", func(a *traceAgg, rs *runState) float64 {
		return ratio(a.layer["corpus.selected"], a.layer["corpus.total"])
	}},

	{"unattributed_ms", "ms", func(a *traceAgg, _ *runState) float64 { return a.led.unattributedMS() / float64(a.passes) }},
	{"traced_busy_ms", "ms", func(a *traceAgg, _ *runState) float64 { return a.busyMS() / float64(a.passes) }},
	{"telemetry.spans", "count", func(a *traceAgg, _ *runState) float64 { return float64(a.led.spans) / float64(a.passes) }},
	{"telemetry.dropped", "count", func(a *traceAgg, _ *runState) float64 { return float64(a.dropped) }},
}

func closedHoles(a *traceAgg) float64 {
	return a.layer["stimgen.holes_sat"] + a.layer["stimgen.holes_fuzz"] + a.layer["stimgen.holes_shared"]
}

// report prints the per-layer self-time table and the accounting check, and
// returns the per-layer metrics; ok is false when the check fails.
func (a *traceAgg) report(wl *workload, rs *runState, untracedS, tracedS float64) (map[string]metric, bool) {
	out := map[string]metric{}
	if a.passes == 0 {
		fmt.Println("no traced pass was accepted")
		return out, false
	}
	busy := a.busyMS() / float64(a.passes)
	fmt.Printf("per-layer self time, mean of %d traced passes (%% of traced busy time %.1f ms):\n", a.passes, busy)
	fmt.Printf("  %-28s %12s %10s %7s\n", "span", "self ms", "count", "%busy")
	names := make([]string, 0, len(a.led.names))
	for n := range a.led.names {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return a.led.names[names[i]].selfUS > a.led.names[names[j]].selfUS })
	for _, n := range names {
		if strings.HasPrefix(n, benchPrefix) {
			continue
		}
		self := a.led.selfMS(n) / float64(a.passes)
		fmt.Printf("  %-28s %12.2f %10.1f %6.2f%%\n", n, self, float64(a.led.count(n))/float64(a.passes), 100*ratio(self, busy))
	}
	un := a.led.unattributedMS() / float64(a.passes)
	fmt.Printf("  %-28s %12.2f %10s %6.2f%%\n", "unattributed_ms", un, "-", 100*ratio(un, busy))
	for _, n := range names {
		if strings.HasPrefix(n, benchPrefix) {
			fmt.Printf("    of which %-19s %12.2f %10.1f\n", strings.TrimPrefix(n, benchPrefix), a.led.selfMS(n)/float64(a.passes), float64(a.led.count(n))/float64(a.passes))
		}
	}
	fmt.Println("per-design self time (ms per traced pass; top spans, unattributed as bench.*):")
	for _, d := range wl.designs {
		byName := a.led.byDesign[d]
		var sum int64
		top := make([]string, 0, len(byName))
		for n, us := range byName {
			sum += us
			top = append(top, n)
		}
		sort.Slice(top, func(i, j int) bool { return byName[top[i]] > byName[top[j]] })
		if len(top) > 4 {
			top = top[:4]
		}
		parts := make([]string, len(top))
		for i, n := range top {
			parts[i] = fmt.Sprintf("%s %.1f (%.0f%%)", n, float64(byName[n])/1e3/float64(a.passes), 100*ratio(float64(byName[n]), float64(sum)))
		}
		fmt.Printf("  %-9s %10.1f  %s\n", d, float64(sum)/1e3/float64(a.passes), strings.Join(parts, ", "))
	}
	total := a.led.totalSelfMS() / float64(a.passes)
	tol := accountingTolerance(busy)
	diff := total - busy
	ok := diff <= tol && -diff <= tol
	verdict := "ok"
	if !ok {
		verdict = "FAILED"
	}
	fmt.Printf("accounting: self times + unattributed = %.2f ms, traced busy = %.2f ms, diff %.2f ms, tolerance %.2f ms: %s\n",
		total, busy, diff, tol, verdict)
	fmt.Println("no span of their own yet: CNF encoding (inside mc.bmc_frame / mc.induction_step),",
		"fault campaign and monitor replay (inside corpus reduce, around sim.batch), fuzzing (inside directed.hole)")

	for _, m := range layerMetrics {
		out[m.name] = metric{m.value(a, rs), m.unit}
	}
	overhead := 100 * (ratio(tracedS, untracedS) - 1)
	out["telemetry.overhead_pct"] = metric{overhead, "pct"}
	fmt.Printf("telemetry.overhead_pct %.2f pct (traced pass %.3f s vs untraced %.3f s, medians)\n", overhead, tracedS, untracedS)
	fmt.Printf("telemetry.dropped %d\n", a.dropped)
	return out, ok
}
