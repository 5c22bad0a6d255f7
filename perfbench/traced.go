package main

import (
	"time"
)

// traced alternates untraced and traced units on the same inputs until the
// run's time is up, and reports per-layer metrics. Every unit's digest must
// equal the run's first — so tracing (router decorator, request retention)
// may not change a simulated output.
//
// The drills run on the first traced unit as soon as it ends, and its spans
// are written then. Each traced unit is kept only as a summary, and the
// drills' Step times only as percentiles: no later unit runs beside a
// result, a trace or per-call timings, whose live heap would raise the GC's
// goal and so skew the runtime.* and cpu_per_wall figures of the untraced
// units after them.
func traced(w workload, u unit, cfg config, rep *report, genTime time.Duration) {
	t := newTally(w, u, cfg.seed, rep)
	epoch := time.Now()
	var plain, withTrace []measurement
	var sums []traceSummary
	var c layerCounts
	var d drillStats
	first := true
	for {
		m, out, err := measure(u, nil)
		if t.check(out, err) {
			plain = append(plain, m)
		}
		tr := newUnitTrace(epoch, first)
		m, out, err = measure(u, tr)
		if t.check(out, err) {
			withTrace = append(withTrace, m)
			sums = append(sums, tr.summary())
			if first {
				first, c = false, out.counts
				runDrills(u, out, tr, cfg, t, &d)
			}
		}
		if time.Since(epoch).Seconds() >= cfg.seconds {
			break
		}
	}
	rep.units = len(plain) + len(withTrace)
	rep.Attempted, rep.Failed = t.attempted, t.failed

	perTrace := func(f func(s traceSummary) float64) float64 {
		xs := make([]float64, len(sums))
		for i, s := range sums {
			xs[i] = f(s)
		}
		return median(xs)
	}
	perPlain := func(f func(m measurement) float64) float64 {
		xs := make([]float64, len(plain))
		for i, m := range plain {
			xs[i] = f(m)
		}
		return median(xs)
	}

	rep.set("cluster.route.calls", perTrace(func(s traceSummary) float64 { return float64(s.routeCalls) }), "count")
	rep.set("cluster.route.self_s", perTrace(func(s traceSummary) float64 { return seconds(s.routeNs) }), "s")
	rep.set("cluster.route.p50_ns", perTrace(func(s traceSummary) float64 { return s.routeP50 }), "ns")
	rep.set("cluster.route.p99_ns", perTrace(func(s traceSummary) float64 { return s.routeP99 }), "ns")
	rep.set("cluster.drive.self_s", perTrace(func(s traceSummary) float64 { return seconds(s.driveNs) }), "s")
	rep.set("cluster.arrival_gap.p50_us", perTrace(func(s traceSummary) float64 { return s.gapP50 / 1e3 }), "us")
	rep.set("cluster.arrival_gap.p99_us", perTrace(func(s traceSummary) float64 { return s.gapP99 / 1e3 }), "us")
	rep.set("cluster.cpu_per_wall", perPlain(func(m measurement) float64 { return m.cpu.Seconds() / m.wall.Seconds() }), "ratio")

	rep.set("cluster.replicas_booted", float64(c.replicasBooted), "count")
	rep.set("cluster.scale_events", float64(c.scaleEvents), "count")
	rep.set("cluster.faults", float64(c.faults), "count")
	rep.set("cluster.retries", float64(c.retries), "count")
	rep.set("cluster.failed_requests", float64(c.failedRequests), "count")
	rep.set("cluster.shed_arrivals", float64(c.shedArrivals), "count")

	rep.set("serving.steps", float64(d.steps), "count")
	rep.set("serving.iterations", float64(c.iterations), "count")
	rep.set("serving.iters_per_step", ratio(float64(d.iterations), float64(d.steps)), "ratio")
	rep.set("serving.step.self_s", seconds(d.stepSum), "s")
	rep.set("serving.step.p50_ns", d.stepP50, "ns")
	rep.set("serving.step.p99_ns", d.stepP99, "ns")
	rep.set("serving.ns_per_iter", ratio(float64(d.stepSum), float64(d.iterations)), "ns")
	match := 0.0
	if d.ran && d.match {
		match = 1
	}
	rep.set("serving.drill_match", match, "bool")
	newNs := perTrace(func(s traceSummary) float64 { return float64(s.newNs) })
	if newNs == 0 {
		newNs = float64(d.newNs)
	}
	rep.set("serving.new.self_s", newNs/1e9, "s")
	rep.set("serving.preemptions", float64(c.preemptions), "count")
	rep.set("serving.reprefill_tokens", float64(c.reprefillTokens), "count")

	rep.set("sched.reschedules", float64(c.reschedules), "count")
	rep.set("sched.reschedules_per_kiter", ratio(1000*float64(c.reschedules), float64(c.iterations)), "ratio")

	rep.set("kv.lookups", float64(c.kvLookups), "count")
	rep.set("kv.hit_rate", ratio(float64(c.kvHits), float64(c.kvLookups)), "ratio")
	rep.set("kv.shared_tokens", float64(c.kvShared), "count")
	rep.set("kv.promoted_blocks", float64(c.kvPromoted), "count")
	rep.set("kv.demoted_blocks", float64(c.kvDemoted), "count")
	rep.set("kv.evicted_blocks", float64(c.kvEvicted), "count")
	rep.set("kv.transfer_mb", c.kvTransferBytes/1e6, "MB")

	rep.set("stats.sketch.adds", float64(d.sketchAdds), "count")
	rep.set("stats.sketch.add_ns", ratio(float64(d.sketchAddNs), float64(d.sketchAdds)), "ns")
	rep.set("stats.sketch.merge_us", float64(d.sketchMergeNs)/1e3, "us")

	rep.set("runtime.gc_cycles", perPlain(func(m measurement) float64 { return float64(m.gcCycles) }), "count")
	rep.set("runtime.gc_cpu_s", perPlain(func(m measurement) float64 { return m.gcCPU }), "s")

	rep.set("bench.gen_s", genTime.Seconds(), "s")
	rep.set("bench.requests", float64(t.sent), "count")
	rep.set("bench.trace_overhead", ratio(rate(plain), rate(withTrace)), "ratio")
}

// runDrills runs the workload's drills on the first traced unit, then
// writes the unit's spans. A drill that fails or does not reproduce the
// unit counts the unit's requests as failed.
func runDrills(u unit, out *outcome, tr *unitTrace, cfg config, t *tally, d *drillStats) {
	if dr, ok := u.(driller); ok {
		err := dr.drill(out, tr, d)
		d.summarize()
		switch {
		case err != nil:
			t.rep.note("drill: %v", err)
			t.failed += t.sent
		case !d.match:
			t.rep.note("drill: replaying through the serving layer did not reproduce the unit's results")
			t.failed += t.sent
		}
	}
	if cfg.spans == "-" {
		return
	}
	if err := writeSpans(cfg.spans, tr.spans); err != nil {
		t.rep.note("writing spans: %v", err)
	} else {
		t.rep.note("%d spans written to %s", len(tr.spans), cfg.spans)
	}
}

// traceSummary is what the per-layer metrics keep of one traced unit.
type traceSummary struct {
	routeCalls              int
	routeNs, driveNs, newNs int64
	// percentiles of per-call times, in nanoseconds
	routeP50, routeP99, gapP50, gapP99 float64
}

func (tr *unitTrace) summary() traceSummary {
	s := traceSummary{
		routeCalls: len(tr.routes),
		routeNs:    tr.routeNs,
		newNs:      tr.newNs,
		routeP50:   quantileNs(tr.routes, 0.5),
		routeP99:   quantileNs(tr.routes, 0.99),
		gapP50:     quantileNs(tr.gaps, 0.5),
		gapP99:     quantileNs(tr.gaps, 0.99),
	}
	if tr.runNs > 0 {
		s.driveNs = tr.runNs - tr.routeNs - tr.pullNs
	}
	return s
}

func seconds(ns int64) float64 { return float64(ns) / 1e9 }

// ratio is a/b, or 0 when b is 0 (a layer that did not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantileNs is the nearest-rank q-quantile of a list of durations.
func quantileNs(xs []int64, q float64) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return quantile(fs, q)
}
