package main

import (
	"fmt"
	"math"
	"sort"

	"github.com/papi-sim/papi"
)

// drillStats accumulates a serving drill's Step timings and the sketch
// drill's add and merge timings.
type drillStats struct {
	ran        bool
	match      bool // the drill reproduced the unit's serving results
	stepNs     []int64
	stepSum    int64
	iterations int
	newNs      int64
	// steps and the Step-time percentiles (ns) replace stepNs once the
	// drill ends.
	steps            int
	stepP50, stepP99 float64

	sketchAdds                 int
	sketchAddNs, sketchMergeNs int64
}

// summarize keeps the Step count and percentiles and drops the per-call
// times, which must not stay live while later units run.
func (d *drillStats) summarize() {
	d.steps = len(d.stepNs)
	d.stepP50, d.stepP99 = quantileNs(d.stepNs, 0.5), quantileNs(d.stepNs, 0.99)
	d.stepNs = nil
}

// step times one Stepper.Step call.
func (d *drillStats) step(tr *unitTrace, id int, call func() error) error {
	t0 := tr.now()
	err := call()
	t1 := tr.now()
	d.stepNs = append(d.stepNs, t1-t0)
	d.stepSum += t1 - t0
	tr.leaf(spanStep, id, t0, t1)
	return err
}

// newEngine times one NewEngine call.
func (d *drillStats) newEngine(tr *unitTrace, id int, sys *papi.System, cfg papi.Model, opt papi.Options) (*papi.Engine, error) {
	t0 := tr.now()
	eng, err := papi.NewEngine(sys, cfg, opt)
	t1 := tr.now()
	d.newNs += t1 - t0
	tr.leaf(spanNew, id, t0, t1)
	return eng, err
}

// drill replays every replica's routed sub-stream through its own engine
// and stream stepper, with the fleet's per-replica seed and the fleet's
// horizon — the next arrival anywhere in the fleet — so each replay takes
// the fleet's own Step sequence. It then feeds the retained latencies into
// one sketch per replica and merges them.
func (w *fleetScale) drill(out *outcome, tr *unitTrace, d *drillStats) error {
	f := out.result.(*papi.FleetResult)
	spec, err := papi.DesignByName("PAPI")
	if err != nil {
		return err
	}
	end := tr.begin(spanDrill)
	d.ran, d.match = true, true
	for k := range f.Replicas {
		var sub []papi.Request
		if k < len(tr.subs) {
			sub = tr.subs[k]
		}
		res, err := w.replay(k, sub, spec, f.Makespan, tr, d)
		if err != nil {
			end()
			return fmt.Errorf("replaying replica %d: %w", k, err)
		}
		d.iterations += res.Iterations
		want := &f.Replicas[k]
		if res.Iterations != want.Iterations || res.Tokens != want.Tokens || res.DecodeTime != want.DecodeTime {
			d.match = false
		}
	}
	end()
	return sketchDrill(f, tr, d)
}

func (w *fleetScale) replay(k int, sub []papi.Request, spec papi.DesignSpec, makespan papi.Seconds,
	tr *unitTrace, d *drillStats) (papi.Result, error) {
	sys, err := spec.Build()
	if err != nil {
		return papi.Result{}, err
	}
	opt := w.options(nil, tr).Serving
	opt.Seed += int64(k)
	eng, err := d.newEngine(tr, k, sys, papi.OPT30B(), opt)
	if err != nil {
		return papi.Result{}, err
	}
	st, err := eng.NewStreamStepper(nil, fleetScaleMaxBatch)
	if err != nil {
		return papi.Result{}, err
	}
	inf := papi.Seconds(math.Inf(1))
	horizon := func(t papi.Seconds) papi.Seconds {
		i := sort.Search(len(tr.arrivals), func(i int) bool { return tr.arrivals[i] > t })
		if i == len(tr.arrivals) {
			return inf
		}
		return tr.arrivals[i]
	}
	// The fleet steps a replica at each armed instant strictly before the
	// next arrival it is sent; arrivals at the same instant go first.
	armed, next := false, papi.Seconds(0)
	drive := func(limit papi.Seconds) error {
		for armed && next < limit {
			now := next
			armed = false
			st.AdvanceTo(now)
			st.SetHorizon(horizon(now))
			drained := !st.HasWork()
			if err := d.step(tr, k, func() error { _, err := st.Step(); return err }); err != nil {
				return err
			}
			if !drained {
				armed, next = true, st.Now()
			}
		}
		return nil
	}
	for _, req := range sub {
		at := req.Arrival
		if at < 0 {
			at = 0
		}
		if err := drive(at); err != nil {
			return papi.Result{}, err
		}
		if err := st.Push(req); err != nil {
			return papi.Result{}, err
		}
		if !armed {
			armed, next = true, at
			if t := st.Now(); t > at {
				next = t
			}
		}
	}
	if err := drive(inf); err != nil {
		return papi.Result{}, err
	}
	st.AdvanceTo(makespan)
	return st.Finalize(), nil
}

// sketchDrill feeds each replica's retained TTFT and TPOT records into its
// own latency sketches, then merges them in replica order, as the fleet's
// streaming aggregate does.
func sketchDrill(f *papi.FleetResult, tr *unitTrace, d *drillStats) error {
	end := tr.begin(spanSketch)
	defer end()
	var ttfts, tpots []*papi.LatencySketch
	for k := range f.Replicas {
		ttft, tpot := papi.NewLatencySketch(), papi.NewLatencySketch()
		t0 := tr.now()
		for _, rm := range f.Replicas[k].Requests {
			ttft.Add(rm.TTFT.Seconds())
			d.sketchAdds++
			if rm.OutputTokens > 1 {
				tpot.Add(rm.TPOT.Seconds())
				d.sketchAdds++
			}
		}
		d.sketchAddNs += tr.now() - t0
		ttfts, tpots = append(ttfts, ttft), append(tpots, tpot)
	}
	t0 := tr.now()
	ttft, tpot := papi.NewLatencySketch(), papi.NewLatencySketch()
	for k := range ttfts {
		ttft.Merge(ttfts[k])
		tpot.Merge(tpots[k])
	}
	d.sketchMergeNs = tr.now() - t0
	if ttft.Count() != int64(f.Completed) || tpot.Count() != f.Agg.TPOT.Count() {
		return fmt.Errorf("sketch drill counted %d TTFT / %d TPOT samples, the fleet %d / %d",
			ttft.Count(), tpot.Count(), f.Completed, f.Agg.TPOT.Count())
	}
	return nil
}

// drill re-runs every cell through NewBatchStepper and Step, and checks
// that each Result equals the one RunBatch returned.
func (w *paperGrid) drill(out *outcome, tr *unitTrace, d *drillStats) error {
	systems, err := gridSystems()
	if err != nil {
		return err
	}
	end := tr.begin(spanDrill)
	defer end()
	d.ran, d.match = true, true
	for i, c := range w.cells(systems) {
		eng, err := d.newEngine(tr, i, c.sys, c.cfg, papi.DefaultOptions(c.tlp))
		if err != nil {
			return err
		}
		st, err := eng.NewBatchStepper(c.reqs)
		if err != nil {
			return err
		}
		for {
			drained := !st.HasWork()
			if err := d.step(tr, i, func() error { _, err := st.Step(); return err }); err != nil {
				return err
			}
			if drained {
				break
			}
		}
		res := st.Finalize()
		d.iterations += res.Iterations
		got, err := resultDigest(&res)
		if err != nil {
			return err
		}
		if got != out.cells[i] {
			d.match = false
		}
	}
	return nil
}
