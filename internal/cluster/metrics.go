package cluster

import (
	"fmt"
	"sort"

	"github.com/papi-sim/papi/internal/energy"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// FleetResult aggregates one cluster run: per-replica serving results plus
// the fleet-level quantities a capacity planner reads — aggregate
// throughput, energy, and latency tail percentiles.
type FleetResult struct {
	System string
	Model  string
	Router string

	// Replicas holds each replica's serving result, in replica order. Its
	// per-request records (Requests) and per-iteration traces (RLPTrace,
	// IterStats) are kept only with Options.RetainRequests; every other
	// field is the same either way.
	Replicas []serving.Result
	// Routed is how many requests each replica received.
	Routed []int

	// Requests merges every replica's per-request metrics (arrival-relative
	// latencies), sorted by request ID. Retention is opt-in
	// (Options.RetainRequests): at million-request scale the per-request
	// slice is the run's memory bound, so by default it stays empty and the
	// streaming Agg carries the latency distributions instead.
	Requests []serving.RequestMetrics

	// Stream is the realised arrival stream — every request the fleet
	// actually served, with its concrete arrival instant, sorted by arrival
	// then ID. For closed-loop runs this is where the simulation-dependent
	// follow-up arrivals become concrete, so wrapping it in a
	// workload.Trace replays the exact same traffic open-loop. Retention is
	// opt-in (Options.RetainStream); empty unless the caller asked to keep
	// it for trace export.
	Stream []workload.Request

	// Completed counts the requests the fleet finished — always populated,
	// whether or not the per-request records were retained.
	Completed int
	// Agg is the fleet's streaming latency aggregate: constant-memory
	// quantile sketches fed at each completion and merged from the replicas
	// in replica order. The TTFT/TPOT summaries and the attainment scores
	// derive from it, so they are available at any fleet scale.
	Agg *FleetAggregate

	// Makespan is the instant the last replica finished, on the shared
	// fleet clock.
	Makespan units.Seconds
	// Tokens is the fleet-wide generated token count.
	Tokens int
	// Energy merges every replica's ledger. Replicas still powered on at
	// the fleet's end idle until the makespan (the fleet is decommissioned
	// as a unit), so a statically over-provisioned fleet pays for its idle
	// replicas — the cost autoscaling exists to shed. A drained replica
	// stops accruing at its power-off instant.
	Energy energy.Ledger

	// Preemptions counts fleet-wide evict-and-requeue events (batch-class
	// requests pushed out for interactive arrivals under KV pressure).
	Preemptions int

	// Resilience accounting (all zero for fault-free runs). Faults counts
	// the plan's fault events that actually fired against the fleet;
	// Retries the failover re-injections; FailedRequests the requests that
	// exhausted the retry bound (or had no survivor to land on), sorted by
	// ID. LostTokens is generation sunk on crashed or timed-out attempts
	// (goodput discounts it), FailoverReprefillTokens the context tokens
	// survivors had to re-prefill, Repins the conversations re-homed after
	// their KV-affinity replica died, and ShedArrivals the batch-class
	// admissions parked during brownout windows.
	Faults                  int
	Retries                 int
	FailedRequests          []FailedRequest
	LostTokens              int
	FailoverReprefillTokens int
	Repins                  int
	ShedArrivals            int

	// ReplicaSeconds sums every replica's powered-on span (boot to power-off
	// or makespan) — the fleet's provisioned capacity-time, the denominator
	// of elastic efficiency. PeakReplicas is the most replicas ever powered
	// on concurrently; for a static fleet it equals the replica count and
	// ReplicaSeconds = replicas × makespan.
	ReplicaSeconds units.Seconds
	PeakReplicas   int
	// ScaleEvents is the elastic audit trail (nil for static fleets).
	ScaleEvents []ScaleEvent

	// PerDesign splits the fleet metrics by hardware design, in blueprint
	// order — the comparison a mixed-design fleet exists to make. Nil for
	// homogeneous fleets (PerDesign != nil is the "this fleet was mixed"
	// marker, like ScaleEvents for elasticity).
	PerDesign []DesignMetrics

	// TTFT and TPOT digest the request latency distributions (seconds).
	// TPOT summarises multi-token requests only: single-token requests have
	// no inter-token cadence (their TPOT is 0 by definition).
	// InteractiveTPOT and BatchTPOT split the TPOT digest by priority class
	// (zeros when a class is absent).
	TTFT            stats.Summary
	TPOT            stats.Summary
	InteractiveTPOT stats.Summary
	BatchTPOT       stats.Summary
}

// FailedRequest records one request the fleet terminally failed: it ran
// out of retry budget (Reason "crash" or "timeout" names the final straw),
// no replica survived to serve it ("no-replicas" when failing fast,
// "unserved" when it was still waiting for a replacement boot at the end of
// the run), or it is a later conversation turn that never launched because
// an earlier one failed ("abandoned", with zero attempts).
type FailedRequest struct {
	ID       int
	Class    workload.Class
	Attempts int
	Reason   string
	At       units.Seconds
}

// DesignMetrics is one hardware design's share of a mixed fleet's run.
type DesignMetrics struct {
	// Design is the display name of the hardware design.
	Design string
	// Replicas counts the fleet slots that ran this design.
	Replicas int
	// Routed is how many requests the routers sent to this design's
	// replicas; Requests how many completed there.
	Routed   int
	Requests int
	// Tokens and Energy are this design's share of the fleet totals.
	Tokens int
	Energy units.Joules
	// TTFT and TPOT digest this design's request latency distributions
	// (TPOT over multi-token requests only, as in the fleet digest).
	TTFT stats.Summary
	TPOT stats.Summary

	// agg is this design's streaming latency aggregate, merged from its
	// replicas in replica order — the distribution Attainment scores.
	agg *FleetAggregate
}

// Attainment scores the design's completed requests against a per-token SLO
// (serving.SLOAttainment's single-token rule). A design that served nothing
// scores 1 — an idle design violates nothing, the same vacuous rule as
// AttainmentClass — rather than the 0 that would read as a total miss.
func (d DesignMetrics) Attainment(slo workload.SLO) float64 {
	if d.agg == nil || d.agg.Completed == 0 {
		return 1
	}
	return float64(d.agg.metCount(slo)) / float64(d.agg.Completed)
}

// FleetAggregate is the constant-memory streaming form of a fleet's latency
// distributions: one deterministic quantile sketch per digest the summaries
// and attainment scores need, fed at each request completion and merged
// across replicas in replica order. While a run stays within the sketches'
// exact regime (≤ stats.DefaultSketchK samples each, which covers every
// figure reproduction) the derived summaries are bit-identical to the
// retained-slice oracle; beyond it they carry the sketch's documented rank
// error. The scores are serving.RequestMetrics.Score: a request's score is
// its TPOT, or its total completion latency when it generated at most one
// token (a single token has no inter-token cadence).
type FleetAggregate struct {
	// Completed counts the requests folded in.
	Completed int64 `json:"completed"`
	// TTFT digests time-to-first-token; TPOT the inter-token cadence of
	// multi-token requests, with InteractiveTPOT/BatchTPOT the per-class
	// split (single-token requests have no cadence and are absent).
	TTFT            *stats.Sketch `json:"ttft"`
	TPOT            *stats.Sketch `json:"tpot"`
	InteractiveTPOT *stats.Sketch `json:"interactive_tpot"`
	BatchTPOT       *stats.Sketch `json:"batch_tpot"`
	// InteractiveScore and BatchScore hold every completion's SLO score
	// (per-token rule above), split by priority class so attainment can
	// count either tier or both.
	InteractiveScore *stats.Sketch `json:"interactive_score"`
	BatchScore       *stats.Sketch `json:"batch_score"`
}

func newFleetAggregate() *FleetAggregate {
	return &FleetAggregate{
		TTFT:             stats.NewSketch(),
		TPOT:             stats.NewSketch(),
		InteractiveTPOT:  stats.NewSketch(),
		BatchTPOT:        stats.NewSketch(),
		InteractiveScore: stats.NewSketch(),
		BatchScore:       stats.NewSketch(),
	}
}

// observe folds one completion in.
func (a *FleetAggregate) observe(rm serving.RequestMetrics) {
	a.Completed++
	a.TTFT.Add(rm.TTFT.Seconds())
	if rm.OutputTokens > 1 {
		a.TPOT.Add(rm.TPOT.Seconds())
		if rm.Class == workload.ClassBatch {
			a.BatchTPOT.Add(rm.TPOT.Seconds())
		} else {
			a.InteractiveTPOT.Add(rm.TPOT.Seconds())
		}
	}
	a.scoreSketch(rm.Class).Add(rm.Score().Seconds())
}

// merge folds o into a (o is unchanged). Order-sensitive once the sketches
// compact, so the fleet always merges in replica order.
func (a *FleetAggregate) merge(o *FleetAggregate) {
	a.Completed += o.Completed
	a.TTFT.Merge(o.TTFT)
	a.TPOT.Merge(o.TPOT)
	a.InteractiveTPOT.Merge(o.InteractiveTPOT)
	a.BatchTPOT.Merge(o.BatchTPOT)
	a.InteractiveScore.Merge(o.InteractiveScore)
	a.BatchScore.Merge(o.BatchScore)
}

// metCount is the number of completed requests whose score meets the
// per-token SLO, counted on the score sketches.
func (a *FleetAggregate) metCount(slo workload.SLO) int64 {
	if slo.TokenLatency <= 0 {
		return a.Completed
	}
	x := slo.TokenLatency.Seconds()
	return a.InteractiveScore.CountLE(x) + a.BatchScore.CountLE(x)
}

// scoreSketch picks the score distribution of one priority class.
func (a *FleetAggregate) scoreSketch(class workload.Class) *stats.Sketch {
	if class == workload.ClassBatch {
		return a.BatchScore
	}
	return a.InteractiveScore
}

// aggregate finalises every replica and folds the fleet metrics.
func aggregate(r *fleetRun, want int) (*FleetResult, error) {
	f := &FleetResult{System: r.c.sysName, Model: r.c.cfg.Name, Router: r.c.opt.Router.Name()}
	f.Stream = append([]workload.Request(nil), r.stream...)
	sort.SliceStable(f.Stream, func(i, j int) bool {
		if f.Stream[i].Arrival != f.Stream[j].Arrival {
			return f.Stream[i].Arrival < f.Stream[j].Arrival
		}
		return f.Stream[i].ID < f.Stream[j].ID
	})

	// The makespan is fixed first; replicas still powered on then idle up
	// to it (the fleet is decommissioned as a unit), so trailing idle — and
	// its host energy — lands on the ledger of every replica that was kept
	// on. Stopped replicas froze at their power-off instant.
	for _, rep := range r.reps {
		if t := rep.Now(); t > f.Makespan {
			f.Makespan = t
		}
	}
	for _, rep := range r.reps {
		// Stopped replicas froze at power-off, crashed replicas at the
		// failure instant: neither idles to the makespan.
		if rep.state != repStopped && rep.state != repFailed {
			rep.stepper.AdvanceTo(f.Makespan)
		}
	}

	if r.resil != nil {
		r.resil.closeLedger(f.Makespan)
		f.Faults = r.resil.faults
		f.Retries = r.resil.retried
		f.FailedRequests = append([]FailedRequest(nil), r.resil.failures...)
		sort.Slice(f.FailedRequests, func(i, j int) bool {
			return f.FailedRequests[i].ID < f.FailedRequests[j].ID
		})
		f.LostTokens = r.resil.lostTokens
		f.FailoverReprefillTokens = r.resil.reprefill
		f.Repins = r.resil.repins
		f.ShedArrivals = r.resil.shed
	}

	f.PeakReplicas = len(r.reps)
	if r.scaler != nil {
		f.PeakReplicas = r.scaler.peak
		// Non-nil even when no decision fired: ScaleEvents != nil is the
		// "this fleet was elastic" marker String and callers key on.
		f.ScaleEvents = append(make([]ScaleEvent, 0, len(r.scaler.events)), r.scaler.events...)
	}

	// A mixed fleet additionally splits the metrics per design, in blueprint
	// order.
	type designAcc struct {
		dm  DesignMetrics
		agg *FleetAggregate
	}
	var designOrder []*designAcc
	byDesign := map[string]*designAcc{}
	if r.c.mixed() {
		for _, bp := range r.c.blueprints {
			if byDesign[bp.name] == nil {
				acc := &designAcc{dm: DesignMetrics{Design: bp.name}, agg: newFleetAggregate()}
				byDesign[bp.name] = acc
				designOrder = append(designOrder, acc)
			}
		}
	}

	// The latency distributions were folded into each replica's streaming
	// aggregate at completion time (fleetRun.stepReplica); here they only
	// merge, in replica order, so the fleet digest is identical however the
	// run was driven. The per-request records are re-collected only on
	// request.
	f.Agg = newFleetAggregate()
	for _, rep := range r.reps {
		res := rep.stepper.Finalize()
		f.Replicas = append(f.Replicas, res)
		f.Routed = append(f.Routed, rep.routed)
		f.Tokens += res.Tokens
		f.Preemptions += res.Preemptions
		f.Energy.Merge(&res.Energy)
		end := f.Makespan
		if rep.state == repStopped || rep.state == repFailed {
			end = rep.stopAt
		}
		if span := end - rep.bootAt; span > 0 {
			f.ReplicaSeconds += span
		}
		f.Agg.merge(rep.agg)
		if acc := byDesign[rep.design]; acc != nil {
			acc.dm.Replicas++
			acc.dm.Routed += rep.routed
			acc.dm.Tokens += res.Tokens
			acc.dm.Energy += res.Energy.Total()
			acc.agg.merge(rep.agg)
		}
		if r.c.opt.RetainRequests {
			f.Requests = append(f.Requests, res.Requests...)
		}
	}
	f.Completed = int(f.Agg.Completed)
	for _, acc := range designOrder {
		acc.dm.Requests = int(acc.agg.Completed)
		acc.dm.TTFT = acc.agg.TTFT.Summary()
		acc.dm.TPOT = acc.agg.TPOT.Summary()
		acc.dm.agg = acc.agg
		f.PerDesign = append(f.PerDesign, acc.dm)
	}
	// Every injected request must be terminally accounted exactly once:
	// completed (folded into the aggregate) or failed (FailedRequests),
	// never both, never neither.
	if f.Completed+len(f.FailedRequests) != want {
		return nil, fmt.Errorf("cluster: %d of %d requests terminally accounted (%d completed + %d failed)",
			f.Completed+len(f.FailedRequests), want, f.Completed, len(f.FailedRequests))
	}
	if r.c.opt.RetainRequests {
		if len(f.Requests) != f.Completed {
			return nil, fmt.Errorf("cluster: retained %d request records for %d completions",
				len(f.Requests), f.Completed)
		}
		sort.Slice(f.Requests, func(i, j int) bool { return f.Requests[i].ID < f.Requests[j].ID })
	}
	f.TTFT = f.Agg.TTFT.Summary()
	f.TPOT = f.Agg.TPOT.Summary()
	f.InteractiveTPOT = f.Agg.InteractiveTPOT.Summary()
	f.BatchTPOT = f.Agg.BatchTPOT.Summary()
	return f, nil
}

// TokensPerSecond is the fleet's aggregate decode goodput over the
// makespan: generation sunk on crashed or timed-out attempts is real work
// the hardware did, so it stays in Tokens and in the energy ledger, but it
// reached no client and does not count as throughput.
func (f *FleetResult) TokensPerSecond() float64 {
	if f.Makespan <= 0 {
		return 0
	}
	return float64(f.Tokens-f.LostTokens) / f.Makespan.Seconds()
}

// RequestsPerSecond is the completed-request rate over the makespan.
func (f *FleetResult) RequestsPerSecond() float64 {
	if f.Makespan <= 0 {
		return 0
	}
	return float64(f.Completed) / f.Makespan.Seconds()
}

// Attainment scores the completed requests against a per-token SLO (see
// serving.SLOAttainment for the single-token rule), evaluated on the
// streaming aggregate so it needs no retained records. Failed and timed-out
// requests never met any latency target: they stay in the denominator as
// misses rather than silently vanishing from the score. An empty window —
// nothing completed, nothing failed — scores 1, the vacuous truth
// AttainmentClass already used for an absent tier, so a zero-request edge
// can never inject a misleading 0 (or a 0/0 NaN) into exported JSON.
func (f *FleetResult) Attainment(slo workload.SLO) float64 {
	total := f.Completed + len(f.FailedRequests)
	if total == 0 {
		return 1
	}
	return float64(f.Agg.metCount(slo)) / float64(total)
}

// AttainmentClass scores one priority class against the SLO, counting the
// class's failed requests as misses (1 when the class is entirely absent —
// an empty tier violates nothing).
func (f *FleetResult) AttainmentClass(slo workload.SLO, class workload.Class) float64 {
	sk := f.Agg.scoreSketch(class)
	met, n := sk.Count(), sk.Count()
	if slo.TokenLatency > 0 {
		met = sk.CountLE(slo.TokenLatency.Seconds())
	}
	for _, fr := range f.FailedRequests {
		if fr.Class == class {
			n++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(met) / float64(n)
}

// Availability is the fraction of injected requests that completed at all —
// the coarse measure failover exists to defend. An empty window (every
// arrival shed, or no arrivals at all) is vacuously available: nothing was
// asked of the fleet and nothing was refused, so the score is 1, not a 0
// that would read as a total outage in exported JSON.
func (f *FleetResult) Availability() float64 {
	total := f.Completed + len(f.FailedRequests)
	if total == 0 {
		return 1
	}
	return float64(f.Completed) / float64(total)
}

// JoulesPerToken is the fleet's energy cost per generated token — with the
// decommission-at-makespan accounting, the figure an elastic fleet improves
// by shedding idle replicas.
func (f *FleetResult) JoulesPerToken() float64 {
	if f.Tokens == 0 {
		return 0
	}
	return f.Energy.Total().Joules() / float64(f.Tokens)
}

// String renders the per-replica table and the fleet digest.
func (f *FleetResult) String() string {
	tb := stats.NewTable(
		fmt.Sprintf("%s fleet · %s · router %s", f.System, f.Model, f.Router),
		"replica", "routed", "tokens", "iters", "busy", "idle", "energy")
	for i, r := range f.Replicas {
		tb.AddRow(
			fmt.Sprintf("%d", i),
			fmt.Sprintf("%d", f.Routed[i]),
			fmt.Sprintf("%d", r.Tokens),
			fmt.Sprintf("%d", r.Iterations),
			(r.PrefillTime + r.DecodeTime).String(),
			r.IdleTime.String(),
			r.Energy.Total().String(),
		)
	}
	out := tb.String() + fmt.Sprintf(
		"makespan %v · %d tokens (%.0f tok/s, %.2f req/s) · energy %v\n"+
			"TTFT p50/p95/p99 %v / %v / %v · TPOT p50/p95/p99 %v / %v / %v\n",
		f.Makespan, f.Tokens, f.TokensPerSecond(), f.RequestsPerSecond(), f.Energy.Total(),
		units.Seconds(f.TTFT.P50), units.Seconds(f.TTFT.P95), units.Seconds(f.TTFT.P99),
		units.Seconds(f.TPOT.P50), units.Seconds(f.TPOT.P95), units.Seconds(f.TPOT.P99))
	if f.Preemptions > 0 {
		out += fmt.Sprintf("preemptions %d · interactive TPOT p95 %v · batch TPOT p95 %v\n",
			f.Preemptions, units.Seconds(f.InteractiveTPOT.P95), units.Seconds(f.BatchTPOT.P95))
	}
	if f.Faults > 0 || len(f.FailedRequests) > 0 {
		out += fmt.Sprintf("faults %d · retries %d · failed %d · availability %.3f · "+
			"lost tokens %d · re-prefill %d · re-pins %d · shed %d\n",
			f.Faults, f.Retries, len(f.FailedRequests), f.Availability(),
			f.LostTokens, f.FailoverReprefillTokens, f.Repins, f.ShedArrivals)
	}
	if f.ScaleEvents != nil {
		ups, drains := 0, 0
		for _, ev := range f.ScaleEvents {
			switch ev.Action {
			case ScaleUp:
				ups++
			case ScaleDrain:
				drains++
			}
		}
		out += fmt.Sprintf("autoscale: peak %d replicas · %v replica-seconds · %d scale-ups / %d drains\n",
			f.PeakReplicas, f.ReplicaSeconds, ups, drains)
	}
	for _, d := range f.PerDesign {
		out += fmt.Sprintf("design %-14s %d replicas · routed %d · %d reqs · %d tokens · %v · "+
			"TTFT p95 %v · TPOT p95 %v\n",
			d.Design, d.Replicas, d.Routed, d.Requests, d.Tokens, d.Energy,
			units.Seconds(d.TTFT.P95), units.Seconds(d.TPOT.P95))
	}
	return out
}
