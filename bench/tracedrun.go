package main

import (
	"fmt"
	"path/filepath"
)

// layerSpec is one per-layer metric. BENCHMARK.json lists the same names
// (a test holds the two together). A traced run prints every one of them;
// a metric that does not apply to the workload being run reads 0.
type layerSpec struct {
	name   string
	unit   string
	better string
}

// traceLayers are the layers self time is attributed to. "harness" is the
// benchmark's own code inside an op (request building, output checks).
var traceLayers = []string{"topo", "fabric", "snapshot", "controller", "traffic", "qualify", "planner", "guard", "store", "server", "harness"}

var perLayerSpec = func() []layerSpec {
	spec := []layerSpec{
		{"topo.build_ms", "ms", "lower"},
		{"fabric.events_per_op", "count", "lower"},
		{"fabric.us_per_event", "us", "lower"},
		{"fabric.allocs_per_event", "count", "lower"},
		{"fabric.bytes_per_event", "B", "lower"},
		{"fabric.virtual_ms_per_op", "ms", "lower"},
		{"fabric.churn_us_per_event", "us", "lower"},
		{"fabric.churn_events_per_op", "count", "lower"},
		{"fabric.us_per_event_large", "us", "lower"},
		{"fabric.scale_growth", "ratio", "lower"},
		{"fabric.par_speedup_w2", "ratio", "higher"},
		{"bgp.skipped_recompute_frac", "ratio", "higher"},
		{"bgp.adv_memo_hits_per_op", "count", "higher"},
		{"bgp.fib_memo_hits_per_op", "count", "higher"},
		{"bgp.decision_us", "us", "lower"},
		{"fib.install_ns", "ns", "lower"},
		{"fib.touch_ns", "ns", "lower"},
		{"fib.installs_per_op", "count", "lower"},
		{"fib.touches_per_op", "count", "higher"},
		{"core.eval_hit_ns", "ns", "lower"},
		{"core.eval_miss_ns", "ns", "lower"},
		{"core.cache_hit_frac", "ratio", "higher"},
		{"snapshot.capture_ms", "ms", "lower"},
		{"snapshot.restore_ms_medium", "ms", "lower"},
		{"snapshot.restore_ms_small", "ms", "lower"},
		{"snapshot.fingerprint_ms", "ms", "lower"},
		{"snapshot.encoded_kb", "KB", "lower"},
		{"controller.rollout_ms", "ms", "lower"},
		{"qualify.run_ms", "ms", "lower"},
		{"qualify.gate_ms", "ms", "lower"},
		{"traffic.propagate_us", "us", "lower"},
		{"telemetry.emit_ns", "ns", "lower"},
		{"planner.score_ms_mid", "ms", "lower"},
		{"planner.bare_ms_mid", "ms", "lower"},
		{"planner.probe_share", "ratio", "lower"},
		{"planner.plan_ms.fig10", "ms", "lower"},
		{"planner.plan_ms.decommission", "ms", "lower"},
		{"planner.plan_ms.pod-drain", "ms", "lower"},
		{"planner.candidates_per_plan", "count", "lower"},
		{"planner.ms_per_candidate", "ms", "lower"},
		{"planner.memo_hit_frac", "ratio", "higher"},
		{"planner.checkpoint_kb", "KB", "lower"},
		{"planner.checkpoint_ms", "ms", "lower"},
		{"planner.resume_ms", "ms", "lower"},
		{"guard.run_ms", "ms", "lower"},
		{"guard.bare_ms", "ms", "lower"},
		{"guard.overhead_x", "ratio", "lower"},
		{"guard.ms_per_wave", "ms", "lower"},
		{"guard.rollback_ms", "ms", "lower"},
		{"guard.retries_per_op", "count", "lower"},
		{"store.append_us", "us", "lower"},
		{"store.append_nosync_us", "us", "lower"},
		{"store.appends_per_op", "count", "lower"},
		{"store.bytes_per_op", "B", "lower"},
		{"store.object_put_ms", "ms", "lower"},
		{"store.recover_ms", "ms", "lower"},
		{"store.compactions", "count", "lower"},
		{"server.http_floor_us", "us", "lower"},
		{"server.memo_hit_us", "us", "lower"},
		{"server.overhead_us", "us", "lower"},
		{"server.encode_us", "us", "lower"},
		{"server.cold_build_ms", "ms", "lower"},
		{"server.boot_recover_ms", "ms", "lower"},
		{"server.cache_hit_frac", "ratio", "higher"},
		{"server.memo_hit_frac", "ratio", "higher"},
		{"server.rejected", "count", "lower"},
		{"server.scale_c2", "ratio", "higher"},
		{"server.plan_step_ms", "ms", "lower"},
		{"server.execute_wave_ms", "ms", "lower"},
		{"proc.cpu_ms_per_op", "ms", "lower"},
		{"proc.gc_cpu_frac", "ratio", "lower"},
		{"proc.gc_cycles_per_op", "count", "lower"},
		{"proc.peak_rss_mb", "MB", "lower"},
		{"machine.spin_ms", "ms", "lower"},
		{"rounds.wall_p50_over_p10", "ratio", "lower"},
		{"trace.overhead_frac", "ratio", "lower"},
	}
	for _, l := range traceLayers {
		spec = append(spec, layerSpec{"self_ms_per_op." + l, "ms", "lower"})
	}
	return spec
}()

// rigsFor names the rig set that explains each workload.
var rigsFor = map[string][]func(*env) []metric{
	"converge-cold":   {engineRigs},
	"migrate-churn":   {churnRigs},
	"serve-whatif":    {whatIfRigs},
	"plan-search":     {planRigs, storeRigs},
	"execute-guarded": {guardRigs, storeRigs},
}

// tracedRun is the second mode: one set-up, a few untraced reference
// rounds, the same number of rounds with a span around every call into a
// layer, then the layer rigs. It prints the per-layer metrics and writes
// the spans; end-to-end metrics are never taken from it.
func tracedRun(w *workload, e *env, o options, ctx map[string]any) ([]metric, *outcome, error) {
	rounds := tracedRounds
	if o.quick {
		rounds = 1
	}
	inst, ref, plain, err := prepare(w, e, 1)
	if err != nil {
		return nil, nil, err
	}
	closed := false
	defer func() {
		if !closed {
			inst.close()
		}
	}()
	if err := measure(inst, ref, plain, nil, 0, rounds, rounds); err != nil {
		return nil, nil, err
	}
	traced := *plain
	traced.rounds, traced.attempted, traced.failed = nil, 0, 0
	tr := newTracer()
	e.tr = tr
	err = measure(inst, ref, &traced, tr, 0, rounds, rounds)
	e.tr = nil
	if err != nil {
		return nil, nil, err
	}
	var counters map[string]float64
	if inst.counters != nil {
		counters = inst.counters()
	}
	inst.close()
	closed = true

	vals := layerMetrics(w, tr, plain, &traced, counters)
	for _, rig := range rigsFor[w.name] {
		for _, m := range rig(e) {
			vals[m.name] = m.value
		}
	}

	spanPath := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", w.name, o.seed))
	if err := writeSpans(spanPath, ctx, tr.spans); err != nil {
		return nil, nil, fmt.Errorf("write spans: %w", err)
	}

	fmt.Printf("%s seed=%d traced: %d+%d rounds of %d ops, %d spans -> %s\n",
		w.name, o.seed, rounds, rounds, plain.opsPerRound, len(tr.spans), spanPath)
	printShares(w, vals)
	metrics := make([]metric, 0, len(perLayerSpec))
	for _, s := range perLayerSpec {
		metrics = append(metrics, metric{s.name, vals[s.name], s.unit})
		if _, ok := vals[s.name]; ok {
			fmt.Printf("  %-32s %14.4f %s\n", s.name, vals[s.name], s.unit)
		}
	}
	traced.attempted += plain.attempted
	traced.failed += plain.failed
	return metrics, &traced, nil
}

// printShares prints each layer's share of the traced op time and says
// whether the layers the workload names as dominant hold over half.
func printShares(w *workload, vals map[string]float64) {
	var total, named float64
	for _, l := range traceLayers {
		total += vals["self_ms_per_op."+l]
	}
	if total == 0 {
		return
	}
	fmt.Printf("  traced self time per op, by layer (spans inside the engine are a later change: fabric holds bgp and fib):\n")
	for _, l := range traceLayers {
		if v := vals["self_ms_per_op."+l]; v > 0 {
			fmt.Printf("    %-12s %10.3f ms  %5.1f%%\n", l, v, 100*v/total)
		}
	}
	for _, l := range w.layers {
		named += vals["self_ms_per_op."+l]
	}
	fmt.Printf("    named dominant layers %v hold %.1f%%\n", w.layers, 100*named/total)
}

// quietWall is the fastest round: with five rounds a side there is no
// tenth percentile to take.
func quietWall(rounds []round) float64 {
	var wall []float64
	for _, r := range rounds {
		wall = append(wall, r.wallS)
	}
	return percentile(wall, 0)
}

// layerMetrics derives the per-layer numbers a workload's own spans and
// counters give; the rigs add the rest.
func layerMetrics(w *workload, tr *tracer, plain, traced *outcome, counters map[string]float64) map[string]float64 {
	vals := make(map[string]float64)
	spans := tr.spans
	ops := float64(traced.opsPerRound * len(traced.rounds))
	plainOps := float64(plain.opsPerRound * len(plain.rounds))

	// Self time per layer. On the daemon workloads the library layers are
	// what the re-enactment of the same ops cost, and "server" is the rest
	// of the request: the untraced rounds' mean op latency minus the
	// re-enacted library time and the harness's own. (The untraced
	// latency, not the traced request span: a request sent right after
	// the harness has been busy re-enacting the previous one waits longer
	// for the daemon's goroutine to be scheduled.)
	self := layerSelf(spans)
	if _, nreq := spanTotal(spans, "server.request"); nreq > 0 {
		var lib int64
		for _, l := range traceLayers {
			if l != "server" {
				lib += self[l]
			}
		}
		var latMs float64
		for _, r := range plain.rounds {
			for _, ms := range r.latMs {
				latMs += ms
			}
		}
		self["server"] = int64(latMs/plainOps*ops*1e6) - lib
		if self["server"] < 0 {
			self["server"] = 0
		}
	}
	for _, l := range traceLayers {
		vals["self_ms_per_op."+l] = float64(self[l]) / 1e6 / ops
	}

	mean := func(name string) float64 {
		total, n := spanTotal(spans, name)
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}
	meanOf := func(name, class string) float64 {
		var total int64
		var n int
		for _, s := range spans {
			if s.Name == name && tr.classOf(s) == class {
				total += s.End - s.Start
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return float64(total) / float64(n)
	}

	var events, virtual, tracedEvents float64
	var mallocs, bytes, cpu float64
	for _, r := range traced.rounds {
		tracedEvents += float64(r.events)
	}
	var spinMs, wall []float64
	for _, r := range plain.rounds {
		events += float64(r.events)
		virtual += float64(r.virtualNs)
		mallocs += float64(r.mallocs)
		bytes += float64(r.bytes)
		cpu += r.cpuS
		spinMs = append(spinMs, r.spinMs)
		wall = append(wall, r.wallS)
	}
	vals["proc.cpu_ms_per_op"] = cpu * 1e3 / plainOps
	if plain.gc.totalCPU > 0 {
		vals["proc.gc_cpu_frac"] = plain.gc.gcCPU / plain.gc.totalCPU
	}
	vals["proc.gc_cycles_per_op"] = float64(plain.gc.cycles) / plainOps
	vals["proc.peak_rss_mb"] = peakRSSMB()
	vals["machine.spin_ms"] = median(spinMs)
	vals["rounds.wall_p50_over_p10"] = median(wall) / quiet(wall)
	vals["trace.overhead_frac"] = 1 - quietWall(plain.rounds)/quietWall(traced.rounds)

	switch w.name {
	case "converge-cold":
		converge, _ := spanTotal(spans, "fabric.converge")
		vals["topo.build_ms"] = mean("topo.build") / 1e6
		vals["fabric.events_per_op"] = events / plainOps
		vals["fabric.virtual_ms_per_op"] = virtual / 1e6 / plainOps
		vals["fabric.us_per_event"] = float64(converge) / 1e3 / tracedEvents
		vals["fabric.allocs_per_event"] = mallocs / events
		vals["fabric.bytes_per_event"] = bytes / events
		engineCounterMetrics(vals, counters)
	case "migrate-churn":
		converge, _ := spanTotal(spans, "fabric.converge")
		vals["fabric.churn_events_per_op"] = events / plainOps
		vals["fabric.churn_us_per_event"] = float64(converge) / 1e3 / tracedEvents
		vals["fabric.virtual_ms_per_op"] = virtual / 1e6 / plainOps
		vals["snapshot.restore_ms_medium"] = mean("snapshot.restore") / 1e6
		vals["controller.rollout_ms"] = mean("controller.rollout") / 1e6
		vals["traffic.propagate_us"] = mean("traffic.propagate") / 1e3
		engineCounterMetrics(vals, counters)
		if total := counters["core.hits"] + counters["core.misses"]; total > 0 {
			vals["core.cache_hit_frac"] = counters["core.hits"] / total
		}
	case "serve-whatif":
		vals["fabric.events_per_op"] = events / plainOps
		classMs := plain.classLatency()
		vals["server.memo_hit_us"] = classMs["memo-hit"] * 1e3
		vals["server.encode_us"] = mean("server.encode") / 1e3
		vals["snapshot.restore_ms_small"] = mean("snapshot.restore") / 1e6
		vals["qualify.gate_ms"] = mean("qualify.gate") / 1e6
		// Overhead per evaluated request: its untraced latency minus the
		// library calls the re-enactment made for it.
		var evalLib int64
		var evalN int
		for _, s := range spans {
			switch s.Name {
			case "snapshot.restore":
				evalN++
				fallthrough
			case "qualify.gate", "server.encode":
				evalLib += s.End - s.Start
			}
		}
		var evalMs, evalOps float64
		for _, r := range plain.rounds {
			for i, ms := range r.latMs {
				if plain.classes[i] != "memo-hit" {
					evalMs += ms
					evalOps++
				}
			}
		}
		if evalN > 0 && evalOps > 0 {
			vals["server.overhead_us"] = evalMs/evalOps*1e3 - float64(evalLib)/1e3/float64(evalN)
		}
		if total := counters["server.cache_hits"] + counters["server.cache_misses"]; total > 0 {
			vals["server.cache_hit_frac"] = counters["server.cache_hits"] / total
		}
		if total := counters["server.memo_hits"] + counters["server.memo_misses"]; total > 0 {
			vals["server.memo_hit_frac"] = counters["server.memo_hits"] / total
		}
		vals["server.rejected"] = counters["server.rejected"]
	case "plan-search":
		for _, sc := range []string{"fig10", "decommission", "pod-drain"} {
			var total int64
			plans := map[int]bool{}
			for _, s := range spans {
				if layerOf(s.Name) == "planner" && s.Parent >= 0 && spans[s.Parent].Name == "harness.op" && tr.classOf(s) == sc {
					total += s.End - s.Start
					plans[s.Op] = true
				}
			}
			if len(plans) > 0 {
				vals["planner.plan_ms."+sc] = float64(total) / 1e6 / float64(len(plans))
			}
		}
		if plans := counters["planner.plans"]; plans > 0 {
			vals["planner.candidates_per_plan"] = counters["planner.steps"] / plans
			vals["planner.memo_hit_frac"] = counters["planner.memo"] / (counters["planner.memo"] + counters["planner.steps"])
			vals["planner.ms_per_candidate"] = float64(self["planner"]) / 1e6 / ops / vals["planner.candidates_per_plan"]
		}
		if n := counters["planner.checkpoints"]; n > 0 {
			vals["planner.checkpoint_kb"] = counters["planner.checkpoint_bytes"] / 1024 / n
		}
		vals["planner.checkpoint_ms"] = mean("planner.checkpoint") / 1e6
		vals["planner.resume_ms"] = mean("planner.resume") / 1e6
		vals["server.plan_step_ms"] = mean("server.request") / 1e6
		vals["server.encode_us"] = mean("server.encode") / 1e3
		storeCounterMetrics(vals, counters)
	case "execute-guarded":
		run, nrun := spanTotal(spans, "guard.run")
		resume, nresume := spanTotal(spans, "guard.resume")
		if nrun+nresume > 0 {
			vals["guard.ms_per_wave"] = float64(run+resume) / 1e6 / float64(nrun+nresume)
		}
		vals["guard.rollback_ms"] = meanOf("guard.run", "violating") / 1e6
		vals["guard.retries_per_op"] = counters["guard.retries_per_op"]
		vals["server.execute_wave_ms"] = mean("server.request") / 1e6
		vals["server.encode_us"] = mean("server.encode") / 1e3
		vals["server.boot_recover_ms"] = counters["server.boot_recover_ms"]
		vals["store.object_put_ms"] = mean("store.object_put") / 1e6
		storeCounterMetrics(vals, counters)
	}
	return vals
}

// engineCounterMetrics turns the fleet counters of the last op's network
// into per-op numbers.
func engineCounterMetrics(vals, c map[string]float64) {
	vals["bgp.adv_memo_hits_per_op"] = c["bgp.adv_memo"]
	vals["bgp.fib_memo_hits_per_op"] = c["bgp.fib_memo"]
	vals["fib.touches_per_op"] = c["bgp.fib_memo"]
	vals["fib.installs_per_op"] = c["fib.writes"] - c["bgp.fib_memo"]
	// Every per-prefix decision run that was not skipped ends in a FIB
	// write, so skipped ÷ (skipped + writes) is the share avoided.
	if total := c["bgp.skipped"] + c["fib.writes"]; total > 0 {
		vals["bgp.skipped_recompute_frac"] = c["bgp.skipped"] / total
	}
}

// storeCounterMetrics reports what the daemons of all rounds (reference,
// traced and the warm-up) wrote, per op.
func storeCounterMetrics(vals, c map[string]float64) {
	if ops := c["store.ops"]; ops > 0 {
		vals["store.appends_per_op"] = c["store.appends"] / ops
		vals["store.bytes_per_op"] = c["store.bytes"] / ops
	}
	vals["store.compactions"] = c["store.compactions"]
}
