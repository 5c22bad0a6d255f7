package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/cluster"
	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// CapacitySystem names one fleet design under test with a fresh-system
// factory (each replica owns its instance).
type CapacitySystem struct {
	Name string
	New  func() *design.System
}

// CapacitySystems returns the capacity-sweep comparison set: PAPI against
// the strongest heterogeneous baseline and the GPU-less PAPI variant.
func CapacitySystems() []CapacitySystem {
	return []CapacitySystem{
		{Name: "PAPI", New: func() *design.System { return design.MustBuild(design.PAPI(0)) }},
		{Name: "A100+AttAcc", New: func() *design.System { return design.MustBuild(design.A100AttAcc()) }},
		{Name: "PIM-only PAPI", New: func() *design.System { return design.MustBuild(design.PIMOnlyPAPI()) }},
	}
}

// CapacityPoint is one (system, offered QPS) measurement.
type CapacityPoint struct {
	QPS          float64
	Attainment   float64
	TTFTP99      units.Seconds
	TPOTP99      units.Seconds
	TokensPerSec float64
}

// CapacityCurve is one system's attainment curve over the offered rates.
type CapacityCurve struct {
	System string
	Points []CapacityPoint
	// MaxQPS is the highest offered rate whose SLO attainment still meets
	// the target — the system's sustainable capacity (0 when no rate does).
	MaxQPS float64
}

// CapacityResult is the fleet-capacity sweep: for each design, the maximum
// sustainable QPS under a TPOT SLO. This is the cloud-serving question
// PIM-AI and L3 evaluate (QPS per system at fixed quality), asked of the
// PAPI simulator's cluster layer.
type CapacityResult struct {
	Model    string
	Dataset  string
	Replicas int
	Requests int
	SLO      workload.SLO
	Target   float64
	Curves   []CapacityCurve
}

// Capacity runs the default sweep: LLaMA-65B on the general-qa workload,
// 2 replicas behind the least-outstanding-requests router, a 12 ms TPOT SLO
// at a 90% attainment target, across an exponential ladder of offered rates.
func Capacity() CapacityResult {
	return CapacitySweep(CapacitySystems(), model.LLaMA65B(), workload.GeneralQA(),
		2, 64, 16, []float64{2, 5, 10, 20, 40, 80},
		workload.SLO{TokenLatency: units.Milliseconds(12)}, 0.9)
}

// CapacitySweep measures SLO attainment for every (system, offered-QPS)
// pair: each point runs a fresh fleet of `replicas` engines over a seeded
// Poisson stream of `requests` arrivals at that rate, so all systems face
// identical traffic. Cells run on a worker pool sized to the machine; every
// cell is seeded independently, so the result is identical to the serial
// evaluation (see CapacitySweepWorkers).
func CapacitySweep(systems []CapacitySystem, cfg model.Config, ds workload.Dataset,
	replicas, requests, maxBatch int, rates []float64, slo workload.SLO, target float64) CapacityResult {
	return CapacitySweepWorkers(systems, cfg, ds, replicas, requests, maxBatch, rates, slo, target, defaultWorkers())
}

// CapacitySweepWorkers is CapacitySweep with an explicit worker-pool size;
// workers ≤ 1 evaluates the grid serially. Both paths produce identical
// results — the tests pin that equivalence.
func CapacitySweepWorkers(systems []CapacitySystem, cfg model.Config, ds workload.Dataset,
	replicas, requests, maxBatch int, rates []float64, slo workload.SLO, target float64,
	workers int) CapacityResult {
	out := CapacityResult{
		Model:    cfg.Name,
		Dataset:  ds.Name,
		Replicas: replicas,
		Requests: requests,
		SLO:      slo,
		Target:   target,
	}

	// Every system faces identical traffic at a given rate, so each rate's
	// seeded Poisson stream is drawn once and shared across the systems'
	// cells (cluster.Run never writes its argument, so sharing is safe).
	streams := make(map[float64][]workload.Request, len(rates))
	for _, rate := range rates {
		streams[rate] = ds.Poisson(requests, rate, Seed)
	}
	type cell struct {
		sys  CapacitySystem
		rate float64
	}
	var cells []cell
	for _, sys := range systems {
		for _, rate := range rates {
			cells = append(cells, cell{sys: sys, rate: rate})
		}
	}
	points := parallelMap(cells, workers, func(c cell) CapacityPoint {
		reqs := streams[c.rate]
		cl, err := cluster.New(c.sys.New, cfg, cluster.Options{
			Replicas: replicas,
			MaxBatch: maxBatch,
			Router:   cluster.LeastOutstanding(),
			Serving:  serving.DefaultOptions(1),
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: capacity %s @ %g qps: %v", c.sys.Name, c.rate, err))
		}
		f, err := cl.Run(reqs)
		if err != nil {
			panic(fmt.Sprintf("experiments: capacity %s @ %g qps: %v", c.sys.Name, c.rate, err))
		}
		return CapacityPoint{
			QPS:          c.rate,
			Attainment:   f.Attainment(slo),
			TTFTP99:      units.Seconds(f.TTFT.P99),
			TPOTP99:      units.Seconds(f.TPOT.P99),
			TokensPerSec: f.TokensPerSecond(),
		}
	})

	for si, sys := range systems {
		curve := CapacityCurve{System: sys.Name}
		for ri := range rates {
			p := points[si*len(rates)+ri]
			curve.Points = append(curve.Points, p)
			if p.Attainment >= target && p.QPS > curve.MaxQPS {
				curve.MaxQPS = p.QPS
			}
		}
		out.Curves = append(out.Curves, curve)
	}
	return out
}

// String renders the QPS-sweep table plus the per-system capacity headline.
func (r CapacityResult) String() string {
	tb := stats.NewTable(
		fmt.Sprintf("Fleet capacity · %s · %s · %d replicas · TPOT SLO %v @ %.0f%%",
			r.Model, r.Dataset, r.Replicas, r.SLO.TokenLatency, 100*r.Target),
		"system", "offered QPS", "attainment", "TTFT p99", "TPOT p99", "tok/s")
	for _, c := range r.Curves {
		for _, p := range c.Points {
			tb.AddRow(c.System,
				fmt.Sprintf("%g", p.QPS),
				fmt.Sprintf("%.2f", p.Attainment),
				p.TTFTP99.String(),
				p.TPOTP99.String(),
				fmt.Sprintf("%.0f", p.TokensPerSec))
		}
	}
	var b strings.Builder
	b.WriteString(tb.String())
	for _, c := range r.Curves {
		if c.MaxQPS > 0 {
			fmt.Fprintf(&b, "%-14s sustains %g QPS under the SLO\n", c.System, c.MaxQPS)
		} else {
			fmt.Fprintf(&b, "%-14s sustains none of the offered rates\n", c.System)
		}
	}
	return b.String()
}
