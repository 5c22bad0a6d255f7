package experiments

import (
	"fmt"
	"sort"
	"strings"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// ResilienceCell is one (provisioning policy × fault plan) run over the
// tiered day-curve traffic: what the failure cost — lost work, failed
// requests, re-prefilled context — and what the interactive tier's tail
// looked like after the fault landed.
type ResilienceCell struct {
	// Config names the policy ("static-N" or "autoscaled"), Plan the fault
	// plan ("none", "crash", "straggler", "brownout").
	Config string
	Plan   string
	// Provisioned is the static replica count, or the autoscaler's max.
	Provisioned  int
	PeakReplicas int
	Makespan     units.Seconds

	// Failure accounting (see cluster.FleetResult).
	Faults                  int
	Retries                 int
	Failed                  int
	Availability            float64
	LostTokens              int
	FailoverReprefillTokens int
	Repins                  int
	ShedArrivals            int
	ScaleUps                int

	// InteractiveTPOT digests the interactive tier's decode cadence over
	// the whole run. PostFaultInteractiveP99 restricts the p99 to requests
	// arriving at or after the first fault instant (whole run when the plan
	// is empty); RecoveredInteractiveP99 to requests arriving after the
	// recovery guard — fault instant plus warm-up and settle time — the
	// window in which a replacement boot can have re-attained the SLO.
	InteractiveTPOT         stats.Summary
	PostFaultInteractiveP99 units.Seconds
	RecoveredInteractiveP99 units.Seconds
	// InteractiveAttainment scores the interactive tier against the SLO,
	// counting the tier's failed requests as misses.
	InteractiveAttainment float64
}

// RecoveredMeetsSLO reports whether the interactive tail re-attained the
// objective once the fault's recovery window passed.
func (c ResilienceCell) RecoveredMeetsSLO(slo workload.SLO) bool {
	return slo.Met(c.RecoveredInteractiveP99)
}

// ResilienceResult is the resilience matrix: identical tiered-diurnal
// traffic served by a static fleet and an autoscaled fleet, each under no
// faults, a mid-peak replica crash, a straggler window, and an
// attention-link brownout. The question it answers is the failover design's
// headline: does elasticity turn a mid-peak crash from a sustained SLO
// breach into a transient — the autoscaler boots a replacement and the
// interactive p99 TPOT re-attains the objective — and what does each fault
// cost in lost work and re-prefill?
type ResilienceResult struct {
	Model    string
	Scenario string
	Requests int
	MaxBatch int
	SLO      workload.SLO
	// Retries and RetryBackoff are the failover policy every faulted cell
	// runs; CrashAt is the mid-peak crash instant, RecoverySettle the guard
	// added to it before the recovered-tail window opens.
	Retries        int
	RetryBackoff   units.Seconds
	CrashAt        units.Seconds
	RecoverySettle units.Seconds
	Cells          []ResilienceCell
}

// Resilience runs the default matrix: LLaMA-65B PAPI fleets over the
// tiered-diurnal scenario — static-3 versus an autoscaled 1–4 fleet — under
// the four canonical plans, with the crash landing on the day curve's peak.
func Resilience() ResilienceResult {
	return ResilienceSweep(model.LLaMA65B(), 4, 240, 16,
		workload.SLO{TokenLatency: units.Milliseconds(12)}, defaultWorkers())
}

// ResilienceSweep measures every (policy × plan) pair on identical traffic.
// Cells run on a worker pool (≤ 1 is serial; both orders produce identical
// results — every cell is independently seeded).
func ResilienceSweep(cfg model.Config, maxReplicas, requests, maxBatch int,
	slo workload.SLO, workers int) ResilienceResult {
	sc, err := workload.ScenarioByName(workload.ScenarioTieredDiurnal)
	if err != nil {
		panic(fmt.Sprintf("experiments: resilience: %v", err))
	}
	stream, err := sc.Requests(requests, Seed)
	if err != nil {
		panic(fmt.Sprintf("experiments: resilience: %v", err))
	}
	// The tiered-diurnal curve (12/s ± 80%, 20 s period) peaks at 5 s: the
	// crash lands there, when the fleet can least afford the lost replica.
	crashAt := units.Seconds(5)
	settle := units.Seconds(3)
	out := ResilienceResult{
		Model:          cfg.Name,
		Scenario:       sc.Name,
		Requests:       requests,
		MaxBatch:       maxBatch,
		SLO:            slo,
		Retries:        2,
		RetryBackoff:   units.Milliseconds(50),
		CrashAt:        crashAt,
		RecoverySettle: settle,
	}

	plans := []struct {
		name string
		plan *faults.Plan
	}{
		{"none", nil},
		{"crash", &faults.Plan{Name: "mid-peak-crash", Faults: []faults.Fault{
			{Kind: faults.KindCrash, Replica: 0, At: crashAt.Seconds()},
		}}},
		{"straggler", &faults.Plan{Name: "peak-straggler", Faults: []faults.Fault{
			{Kind: faults.KindStraggler, Replica: 0, At: 4, Duration: 3, Factor: 3},
		}}},
		{"brownout", &faults.Plan{Name: "attention-brownout", Faults: []faults.Fault{
			{Kind: faults.KindBrownout, At: 4, Duration: 3, Factor: 2},
		}}},
	}

	type cell struct {
		config    string
		planName  string
		plan      *faults.Plan
		replicas  int
		autoscale *cluster.AutoscaleOptions
	}
	var cells []cell
	for _, p := range plans {
		cells = append(cells, cell{
			config: fmt.Sprintf("static-%d", maxReplicas-1), planName: p.name,
			plan: p.plan, replicas: maxReplicas - 1,
		})
	}
	for _, p := range plans {
		cells = append(cells, cell{
			config: "autoscaled", planName: p.name, plan: p.plan,
			replicas: maxReplicas,
			// The elasticity sweep's controller tuning (see elasticity.go),
			// with a shorter warm-up: replacement boots race the fault's
			// backlog, and the comparison is about whether elasticity
			// recovers the tail, not about provisioning lead time.
			autoscale: &cluster.AutoscaleOptions{
				Min:           1,
				Max:           maxReplicas,
				Interval:      0.25,
				WarmUp:        1,
				CoolDown:      0.25,
				SLO:           slo,
				UpTPOTFactor:  0.75,
				UpQueue:       float64(maxBatch) / 2,
				UpArrivalRate: 5,
				DownQueue:     float64(maxBatch) / 8,
			},
		})
	}

	out.Cells = parallelMap(cells, workers, func(c cell) ResilienceCell {
		initial := c.replicas
		if c.autoscale != nil {
			if initial = (c.autoscale.Min + c.autoscale.Max) / 2; initial < c.autoscale.Min {
				initial = c.autoscale.Min
			}
		}
		copt := cluster.Options{
			Replicas:  initial,
			MaxBatch:  maxBatch,
			Router:    cluster.LeastOutstanding(),
			Serving:   serving.DefaultOptions(1),
			Autoscale: c.autoscale,
			// The post-fault digest replays the realised stream against the
			// fault window, so this figure keeps per-request retention on.
			RetainRequests: true,
			RetainStream:   true,
		}
		if c.plan != nil {
			copt.Faults = c.plan
			copt.Retries = out.Retries
			copt.RetryBackoff = out.RetryBackoff
		}
		cl, err := cluster.NewByName("PAPI", cfg, copt)
		if err != nil {
			panic(fmt.Sprintf("experiments: resilience %s/%s: %v", c.config, c.planName, err))
		}
		f, err := cl.Run(stream)
		if err != nil {
			panic(fmt.Sprintf("experiments: resilience %s/%s: %v", c.config, c.planName, err))
		}
		faultAt := units.Seconds(0)
		if c.plan != nil && !c.plan.Empty() {
			faultAt = c.plan.Faults[0].Start()
		}
		ups := 0
		for _, ev := range f.ScaleEvents {
			if ev.Action == cluster.ScaleUp {
				ups++
			}
		}
		return ResilienceCell{
			Config:                  c.config,
			Plan:                    c.planName,
			Provisioned:             c.replicas,
			PeakReplicas:            f.PeakReplicas,
			Makespan:                f.Makespan,
			Faults:                  f.Faults,
			Retries:                 f.Retries,
			Failed:                  len(f.FailedRequests),
			Availability:            f.Availability(),
			LostTokens:              f.LostTokens,
			FailoverReprefillTokens: f.FailoverReprefillTokens,
			Repins:                  f.Repins,
			ShedArrivals:            f.ShedArrivals,
			ScaleUps:                ups,
			InteractiveTPOT:         f.InteractiveTPOT,
			PostFaultInteractiveP99: interactiveP99After(f, faultAt),
			RecoveredInteractiveP99: interactiveP99After(f, faultAt+settle),
			InteractiveAttainment:   f.AttainmentClass(slo, workload.ClassInteractive),
		}
	})
	return out
}

// interactiveP99After digests the p99 TPOT of interactive multi-token
// requests that arrived at or after the cut, joining the realised arrival
// stream with the per-request metrics by ID.
func interactiveP99After(f *cluster.FleetResult, cut units.Seconds) units.Seconds {
	arrival := make(map[int]units.Seconds, len(f.Stream))
	class := make(map[int]workload.Class, len(f.Stream))
	for _, req := range f.Stream {
		if _, seen := arrival[req.ID]; seen {
			continue // failover re-injections keep the original arrival
		}
		arrival[req.ID] = req.Arrival
		class[req.ID] = req.Class
	}
	var tpots []float64
	for _, rm := range f.Requests {
		at, ok := arrival[rm.ID]
		if !ok || at < cut || rm.OutputTokens <= 1 || class[rm.ID] != workload.ClassInteractive {
			continue
		}
		tpots = append(tpots, rm.TPOT.Seconds())
	}
	if len(tpots) == 0 {
		return 0
	}
	sort.Float64s(tpots)
	return units.Seconds(stats.Percentile(tpots, 99))
}

// Cell returns the (config, plan) cell. The second return is false when the
// matrix has none.
func (r ResilienceResult) Cell(config, plan string) (ResilienceCell, bool) {
	for _, c := range r.Cells {
		if c.Config == config && c.Plan == plan {
			return c, true
		}
	}
	return ResilienceCell{}, false
}

// String renders the (policy × plan) table plus the recovery headline.
func (r ResilienceResult) String() string {
	tb := stats.NewTable(
		fmt.Sprintf("Resilience · %s · %s · %d requests · interactive TPOT SLO %v · %d retries",
			r.Model, r.Scenario, r.Requests, r.SLO.TokenLatency, r.Retries),
		"config", "plan", "peak", "faults", "retries", "failed", "avail",
		"shed", "post-fault p99", "recovered p99", "SLO")
	for _, c := range r.Cells {
		meets := "miss"
		if c.RecoveredMeetsSLO(r.SLO) {
			meets = "ok"
		}
		tb.AddRow(c.Config, c.Plan,
			fmt.Sprintf("%d", c.PeakReplicas),
			fmt.Sprintf("%d", c.Faults),
			fmt.Sprintf("%d", c.Retries),
			fmt.Sprintf("%d", c.Failed),
			fmt.Sprintf("%.3f", c.Availability),
			fmt.Sprintf("%d", c.ShedArrivals),
			c.PostFaultInteractiveP99.String(),
			c.RecoveredInteractiveP99.String(),
			meets)
	}
	var b strings.Builder
	b.WriteString(tb.String())
	auto, okAuto := r.Cell("autoscaled", "crash")
	var static ResilienceCell
	okStatic := false
	for _, c := range r.Cells {
		if c.Plan == "crash" && c.Config != "autoscaled" {
			static, okStatic = c, true
			break
		}
	}
	switch {
	case okAuto && okStatic && auto.RecoveredMeetsSLO(r.SLO):
		fmt.Fprintf(&b,
			"mid-peak crash: autoscaled re-attains the SLO (recovered p99 %v, %d scale-ups) while %s sits at %v\n",
			auto.RecoveredInteractiveP99, auto.ScaleUps, static.Config, static.RecoveredInteractiveP99)
	case okAuto:
		fmt.Fprintf(&b, "mid-peak crash: autoscaled does not re-attain the SLO (recovered p99 %v)\n",
			auto.RecoveredInteractiveP99)
	}
	return b.String()
}
