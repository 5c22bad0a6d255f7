package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// ElasticityCell is one provisioning policy's run over the tiered day-curve
// traffic: the SLO outcome of the interactive tier against the capacity-time
// and energy the policy spent to get it.
type ElasticityCell struct {
	// Config names the policy: "static-N" or "autoscaled".
	Config string
	// Provisioned is the static replica count, or the autoscaler's max.
	Provisioned int
	// PeakReplicas is the most replicas concurrently powered on.
	PeakReplicas int
	// ReplicaSeconds is the provisioned capacity-time (replica·s).
	ReplicaSeconds units.Seconds
	Makespan       units.Seconds
	Tokens         int
	Energy         units.Joules
	JoulesPerToken float64
	// InteractiveTPOT and BatchTPOT digest the per-tier decode cadences.
	InteractiveTPOT stats.Summary
	BatchTPOT       stats.Summary
	// InteractiveAttainment scores the interactive tier against the SLO.
	InteractiveAttainment float64
	// Preemptions counts batch evictions for interactive admissions.
	Preemptions int
	// ScaleUps and Drains count elastic transitions (zero for static).
	ScaleUps, Drains int
}

// MeetsSLO reports whether the cell's interactive p99 TPOT sits within the
// objective.
func (c ElasticityCell) MeetsSLO(slo workload.SLO) bool {
	return slo.Met(units.Seconds(c.InteractiveTPOT.P99))
}

// ElasticityResult is the elasticity sweep: the same tiered-diurnal traffic
// served by statically provisioned fleets of every size up to the peak, and
// by the autoscaled fleet ranging over the same sizes. The question it
// answers is the ROADMAP's production question — what does holding the
// interactive SLO through a day curve cost in replica-seconds and J/token,
// and how much of that cost is elasticity able to shed?
type ElasticityResult struct {
	Model    string
	Scenario string
	Requests int
	MaxBatch int
	SLO      workload.SLO
	Cells    []ElasticityCell
}

// Elasticity runs the default sweep: LLaMA-65B PAPI fleets over the
// tiered-diurnal scenario — a stream long enough to ride a full day-curve
// period, peak and trough — static-1 … static-4 versus an autoscaled 1–4
// fleet, under the 12 ms interactive TPOT SLO.
func Elasticity() ElasticityResult {
	return ElasticitySweep(model.LLaMA65B(), 4, 240, 16,
		workload.SLO{TokenLatency: units.Milliseconds(12)}, defaultWorkers())
}

// ElasticitySweep measures every provisioning policy on identical traffic:
// static fleets of 1 … maxReplicas replicas, then the autoscaled fleet
// bounded by [1, maxReplicas]. Cells run on a worker pool (≤ 1 is serial;
// both orders produce identical results — every cell is independently
// seeded).
func ElasticitySweep(cfg model.Config, maxReplicas, requests, maxBatch int,
	slo workload.SLO, workers int) ElasticityResult {
	sc, err := workload.ScenarioByName(workload.ScenarioTieredDiurnal)
	if err != nil {
		panic(fmt.Sprintf("experiments: elasticity: %v", err))
	}
	stream, err := sc.Requests(requests, Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: elasticity: %v", err))
	}
	out := ElasticityResult{
		Model:    cfg.Name,
		Scenario: sc.Name,
		Requests: requests,
		MaxBatch: maxBatch,
		SLO:      slo,
	}

	type cell struct {
		name      string
		replicas  int
		autoscale *cluster.AutoscaleOptions
	}
	var cells []cell
	for n := 1; n <= maxReplicas; n++ {
		cells = append(cells, cell{name: fmt.Sprintf("static-%d", n), replicas: n})
	}
	// The elastic cell runs a responsive controller: a 250 ms control
	// period with a 1 s warm-up, reacting to queue depth at half the
	// admission cap so replicas are provisioned while the day curve is
	// still climbing, not after the SLO is already gone. The fleet starts
	// at half the ladder — sized for the curve's base rate — and ranges
	// over [1, maxReplicas].
	cells = append(cells, cell{
		name:     "autoscaled",
		replicas: maxReplicas,
		autoscale: &cluster.AutoscaleOptions{
			Min:      1,
			Max:      maxReplicas,
			Interval: 0.25,
			WarmUp:   1,
			CoolDown: 0.25,
			SLO:      slo,
			// Defend the SLO with margin: provision when the windowed p95
			// reaches three quarters of the objective, before the p99 tail
			// crosses it.
			UpTPOTFactor: 0.75,
			UpQueue:      float64(maxBatch) / 2,
			// Proactive rate-based provisioning: a LLaMA-65B replica holds
			// the 12 ms objective to roughly five general-qa arrivals per
			// second (the static ladder's break point), so grow as soon as
			// the windowed rate crosses that — queue and TPOT triggers only
			// fire after the backlog has already formed.
			UpArrivalRate: 5,
			// Drain reluctantly: giving a replica back mid-curve costs a
			// warm-up round-trip when the rate climbs again, and Max bounds
			// the powered-on fleet, so a draining replica blocks the slot a
			// scale-up would need.
			DownQueue: float64(maxBatch) / 8,
		},
	})

	out.Cells = parallelMap(cells, workers, func(c cell) ElasticityCell {
		initial := c.replicas
		if c.autoscale != nil {
			// Boot the elastic fleet sized for the day curve's base rate
			// (half the ladder), not cold at the minimum: a fleet that
			// starts under-provisioned builds a backlog before the first
			// control tick can react.
			if initial = (c.autoscale.Min + c.autoscale.Max) / 2; initial < c.autoscale.Min {
				initial = c.autoscale.Min
			}
		}
		cl, err := cluster.NewByName("PAPI", cfg, cluster.Options{
			Replicas:  initial,
			MaxBatch:  maxBatch,
			Router:    cluster.LeastOutstanding(),
			Serving:   serving.DefaultOptions(1),
			Autoscale: c.autoscale,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: elasticity %s: %v", c.name, err))
		}
		f, err := cl.Run(stream)
		if err != nil {
			panic(fmt.Sprintf("experiments: elasticity %s: %v", c.name, err))
		}
		ups, drains := 0, 0
		for _, ev := range f.ScaleEvents {
			switch ev.Action {
			case cluster.ScaleUp:
				ups++
			case cluster.ScaleDrain:
				drains++
			}
		}
		return ElasticityCell{
			Config:                c.name,
			Provisioned:           c.replicas,
			PeakReplicas:          f.PeakReplicas,
			ReplicaSeconds:        f.ReplicaSeconds,
			Makespan:              f.Makespan,
			Tokens:                f.Tokens,
			Energy:                f.Energy.Total(),
			JoulesPerToken:        f.JoulesPerToken(),
			InteractiveTPOT:       f.InteractiveTPOT,
			BatchTPOT:             f.BatchTPOT,
			InteractiveAttainment: f.AttainmentClass(slo, workload.ClassInteractive),
			Preemptions:           f.Preemptions,
			ScaleUps:              ups,
			Drains:                drains,
		}
	})
	return out
}

// StaticBaseline returns the cheapest static cell that still meets the
// interactive SLO — "static peak provisioning", what a fleet without
// elasticity must keep powered all day. The second return is false when no
// static cell meets the SLO.
func (r ElasticityResult) StaticBaseline() (ElasticityCell, bool) {
	for _, c := range r.Cells {
		if strings.HasPrefix(c.Config, "static-") && c.MeetsSLO(r.SLO) {
			return c, true
		}
	}
	return ElasticityCell{}, false
}

// Autoscaled returns the elastic cell. The second return is false when the
// sweep had none.
func (r ElasticityResult) Autoscaled() (ElasticityCell, bool) {
	for _, c := range r.Cells {
		if c.Config == "autoscaled" {
			return c, true
		}
	}
	return ElasticityCell{}, false
}

// String renders the provisioning-policy table plus the elasticity headline.
func (r ElasticityResult) String() string {
	tb := stats.NewTable(
		fmt.Sprintf("Elasticity · %s · %s · %d requests · interactive TPOT SLO %v",
			r.Model, r.Scenario, r.Requests, r.SLO.TokenLatency),
		"config", "peak", "replica·s", "J/token", "int TPOT p99", "int attain",
		"preempt", "ups/drains", "SLO")
	for _, c := range r.Cells {
		meets := "miss"
		if c.MeetsSLO(r.SLO) {
			meets = "ok"
		}
		tb.AddRow(c.Config,
			fmt.Sprintf("%d", c.PeakReplicas),
			fmt.Sprintf("%.2f", c.ReplicaSeconds.Seconds()),
			fmt.Sprintf("%.1f", c.JoulesPerToken),
			units.Seconds(c.InteractiveTPOT.P99).String(),
			fmt.Sprintf("%.2f", c.InteractiveAttainment),
			fmt.Sprintf("%d", c.Preemptions),
			fmt.Sprintf("%d/%d", c.ScaleUps, c.Drains),
			meets)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	base, okBase := r.StaticBaseline()
	auto, okAuto := r.Autoscaled()
	switch {
	case okBase && okAuto && auto.MeetsSLO(r.SLO):
		fmt.Fprintf(&b,
			"autoscaled holds the SLO with %.2f replica·s vs %.2f for %s (%.1f%% less) · %.1f vs %.1f J/token\n",
			auto.ReplicaSeconds.Seconds(), base.ReplicaSeconds.Seconds(), base.Config,
			100*(1-units.Ratio(auto.ReplicaSeconds, base.ReplicaSeconds)),
			auto.JoulesPerToken, base.JoulesPerToken)
	case okAuto && auto.MeetsSLO(r.SLO):
		b.WriteString("autoscaled holds the SLO; no static cell does\n")
	default:
		b.WriteString("autoscaled misses the SLO\n")
	}
	return b.String()
}
