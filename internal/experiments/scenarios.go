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

// ScenarioCell is one (scenario, system) measurement: the fleet-level
// quantities the scenario engine exists to compare across designs.
type ScenarioCell struct {
	Scenario string
	System   string
	// Requests is the number of requests served — for multi-turn scenarios,
	// the total turn count across all conversations.
	Requests     int
	Tokens       int
	TokensPerSec float64
	Energy       units.Joules
	// TTFT and TPOT digest the per-request latency distributions (seconds).
	TTFT stats.Summary
	TPOT stats.Summary
	// Attainment scores the merged request set against the sweep's SLO.
	Attainment float64
}

// ScenariosResult is the scenario × design sweep: every named workload
// regime (steady, bursty, diurnal, closed-loop multi-turn, long-context)
// run against the capacity-comparison systems on identical traffic.
type ScenariosResult struct {
	Model    string
	Replicas int
	// Count is the per-cell stream size: open-loop requests, or closed-loop
	// conversations (each spanning several turns).
	Count int
	SLO   workload.SLO
	Cells []ScenarioCell
}

// Scenarios runs the default sweep: every registered scenario against the
// capacity comparison set (PAPI, A100+AttAcc, PIM-only PAPI) on LLaMA-65B,
// 2 replicas behind the least-outstanding router, under the 12 ms TPOT SLO.
func Scenarios() ScenariosResult {
	return ScenariosSweep(workload.Scenarios(), CapacitySystems(), model.LLaMA65B(),
		2, 48, 16, workload.SLO{TokenLatency: units.Milliseconds(12)}, defaultWorkers())
}

// ScenariosSweep measures every (scenario, system) cell on a worker pool of
// the given size (≤ 1 runs serially; both paths produce identical results —
// every cell is independently seeded). Within one scenario, all systems face
// byte-identical traffic: open-loop streams are generated from the shared
// experiment seed, and closed-loop conversation plans pre-sample everything
// but the follow-up arrival instants, which each design earns through its
// own completion times.
func ScenariosSweep(scenarios []workload.Scenario, systems []CapacitySystem, cfg model.Config,
	replicas, count, maxBatch int, slo workload.SLO, workers int) ScenariosResult {
	out := ScenariosResult{
		Model:    cfg.Name,
		Replicas: replicas,
		Count:    count,
		SLO:      slo,
	}

	type cell struct {
		sc  workload.Scenario
		sys CapacitySystem
	}
	var cells []cell
	for _, sc := range scenarios {
		for _, sys := range systems {
			cells = append(cells, cell{sc: sc, sys: sys})
		}
	}
	out.Cells = parallelMap(cells, workers, func(c cell) ScenarioCell {
		f := runScenarioCell(c.sc, c.sys, cfg, replicas, count, maxBatch)
		return ScenarioCell{
			Scenario:     c.sc.Name,
			System:       c.sys.Name,
			Requests:     f.Completed,
			Tokens:       f.Tokens,
			TokensPerSec: f.TokensPerSecond(),
			Energy:       f.Energy.Total(),
			TTFT:         f.TTFT,
			TPOT:         f.TPOT,
			Attainment:   f.Attainment(slo),
		}
	})
	return out
}

// runScenarioCell drives one fleet through one scenario's traffic.
func runScenarioCell(sc workload.Scenario, sys CapacitySystem, cfg model.Config,
	replicas, count, maxBatch int) *cluster.FleetResult {
	cl, err := cluster.New(sys.New, cfg, cluster.Options{
		Replicas: replicas,
		MaxBatch: maxBatch,
		Router:   cluster.LeastOutstanding(),
		Serving:  serving.DefaultOptions(1),
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: scenario %s on %s: %v", sc.Name, sys.Name, err))
	}
	var f *cluster.FleetResult
	if sc.ClosedLoop() {
		plan, err := sc.Plan(count, Seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: scenario %s: %v", sc.Name, err))
		}
		f, err = cl.RunPlan(plan)
		if err != nil {
			panic(fmt.Sprintf("experiments: scenario %s on %s: %v", sc.Name, sys.Name, err))
		}
	} else {
		reqs, err := sc.Requests(count, Seed)
		if err != nil {
			panic(fmt.Sprintf("experiments: scenario %s: %v", sc.Name, err))
		}
		f, err = cl.Run(reqs)
		if err != nil {
			panic(fmt.Sprintf("experiments: scenario %s on %s: %v", sc.Name, sys.Name, err))
		}
	}
	return f
}

// String renders the scenario × design table.
func (r ScenariosResult) String() string {
	tb := stats.NewTable(
		fmt.Sprintf("Scenario sweep · %s · %d replicas · %d streams/cell · TPOT SLO %v",
			r.Model, r.Replicas, r.Count, r.SLO.TokenLatency),
		"scenario", "system", "reqs", "tok/s", "energy",
		"TTFT p50/p95/p99", "TPOT p50/p95/p99", "attain")
	for _, c := range r.Cells {
		tb.AddRow(c.Scenario, c.System,
			fmt.Sprintf("%d", c.Requests),
			fmt.Sprintf("%.0f", c.TokensPerSec),
			c.Energy.String(),
			fmt.Sprintf("%v / %v / %v",
				units.Seconds(c.TTFT.P50), units.Seconds(c.TTFT.P95), units.Seconds(c.TTFT.P99)),
			fmt.Sprintf("%v / %v / %v",
				units.Seconds(c.TPOT.P50), units.Seconds(c.TPOT.P95), units.Seconds(c.TPOT.P99)),
			fmt.Sprintf("%.2f", c.Attainment))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	var names []string
	seen := map[string]bool{}
	for _, c := range r.Cells {
		if !seen[c.Scenario] {
			seen[c.Scenario] = true
			names = append(names, c.Scenario)
		}
	}
	fmt.Fprintf(&b, "scenarios: %s\n", strings.Join(names, ", "))
	return b.String()
}
