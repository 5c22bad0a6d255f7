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

// DSEAxes spans the design grid the exploration sweeps, every axis a knob
// the declarative design layer exposes. The paper's PAPI is one point of the
// grid (α = 28, 1P2B × 60 behind 32 GB/s); the sweep asks what the
// neighbouring hardware would have done on the same traffic.
type DSEAxes struct {
	// Alphas sweeps the scheduler's memory-boundedness threshold (§5.2).
	Alphas []float64
	// AttnStacks sweeps the attention pool's xPyB PIM organisation (§6.2):
	// the generational choice between AttAcc-style 1P1B, HBM-PIM-style 1P2B,
	// and denser FPU provisioning.
	AttnStacks []AttnStackAxis
	// AttnDeviceCounts sweeps the disaggregated attention pool size.
	AttnDeviceCounts []int
	// AttnLinkGBps sweeps the attention fabric's host-side bandwidth (§6.3).
	AttnLinkGBps []float64
}

// AttnStackAxis is one attention-stack generation: an xPyB organisation
// plus its die floorplan (0 banks/die solves the Eq. (3) area constraint).
type AttnStackAxis struct {
	Label       string
	FPUs, Banks int
	BanksPerDie int
}

// DefaultDSEAxes returns the published grid: 3 thresholds × 3 stack
// generations × 2 pool sizes × 2 fabric bandwidths = 36 designs.
func DefaultDSEAxes() DSEAxes {
	return DSEAxes{
		Alphas: []float64{8, design.DefaultAlpha, 112},
		AttnStacks: []AttnStackAxis{
			{Label: "1P1B", FPUs: 1, Banks: 1},                   // AttAcc generation
			{Label: "1P2B", FPUs: 1, Banks: 2, BanksPerDie: 128}, // HBM-PIM / Attn-PIM generation
			{Label: "2P1B", FPUs: 2, Banks: 1},                   // denser FPUs, area-solved floorplan
		},
		AttnDeviceCounts: []int{30, 60},
		AttnLinkGBps:     []float64{32, 64},
	}
}

// DSEPoint is one evaluated design: its coordinates on the axes and the
// fleet-level outcome on the shared traffic.
type DSEPoint struct {
	Design       string
	Alpha        float64
	AttnStack    string
	AttnDevices  int
	AttnLinkGBps float64

	TokensPerSec   float64
	JoulesPerToken float64
	TPOTP99        units.Seconds
	Attainment     float64
}

// DSEResult is the design-space exploration: every grid design run over
// identical traffic, plus the best point under the SLO target.
type DSEResult struct {
	Model    string
	Dataset  string
	Replicas int
	Requests int
	RateQPS  float64
	SLO      workload.SLO
	Target   float64
	Points   []DSEPoint
	// Best is the highest-throughput design whose attainment meets the
	// target (zero value when none does).
	Best DSEPoint
}

// DSE runs the default design-space exploration: the DefaultDSEAxes grid of
// PAPI variants on LLaMA-65B general-qa traffic, one replica per design,
// under the 12 ms TPOT SLO at a 90 % target. The 32-request admission cap
// lets RLP range across the α axis (an α above the cap would be
// indistinguishable from always-PIM).
func DSE() DSEResult {
	return DSESweep(DefaultDSEAxes(), model.LLaMA65B(), workload.GeneralQA(),
		1, 48, 32, 12, workload.SLO{TokenLatency: units.Milliseconds(12)}, 0.9, defaultWorkers())
}

// dseSpec realises one grid cell as a declarative design spec: the registry
// PAPI entry with the cell's coordinates applied.
func dseSpec(alpha float64, stack AttnStackAxis, devices int, linkGBps float64) design.Spec {
	spec := design.PAPI(alpha)
	spec.Name = fmt.Sprintf("α=%g %s×%d @%gGB/s", alpha, stack.Label, devices, linkGBps)
	spec.Description = "design-space exploration grid point"
	// Attention-specialised pools: no FC weight-reuse datapath, derated FC
	// reduction trees (§6.1).
	weightReuse := false
	spec.AttnPIM = &design.PIMSpec{
		FPUs:          stack.FPUs,
		Banks:         stack.Banks,
		BanksPerDie:   stack.BanksPerDie,
		Count:         devices,
		FCWeightReuse: &weightReuse,
		FCComputeEff:  0.5,
	}
	// The fabric is the registry's CXL preset with only the bandwidth axis
	// applied, so the α=28 / 32 GB/s grid point stays the registry baseline
	// even if the preset is recalibrated.
	link := design.CXL2Link()
	link.Name = fmt.Sprintf("cxl-%g", linkGBps)
	link.GBps = linkGBps
	spec.AttnLink = link
	return spec
}

// DSESweep evaluates every grid design over one shared seeded request
// stream on a worker pool of the given size (≤ 1 runs serially; both paths
// produce identical results — every cell is independent). Each cell's spec
// is round-tripped through its JSON encoding before building, so the sweep
// exercises exactly the path a hand-written design file takes.
func DSESweep(axes DSEAxes, cfg model.Config, ds workload.Dataset,
	replicas, requests, maxBatch int, rate float64, slo workload.SLO, target float64,
	workers int) DSEResult {
	out := DSEResult{
		Model:    cfg.Name,
		Dataset:  ds.Name,
		Replicas: replicas,
		Requests: requests,
		RateQPS:  rate,
		SLO:      slo,
		Target:   target,
	}

	// Every design faces byte-identical traffic (cluster.Run never writes
	// its argument, so sharing the slice is safe).
	stream := ds.Poisson(requests, rate, Seed)

	type cell struct {
		alpha    float64
		stack    AttnStackAxis
		devices  int
		linkGBps float64
	}
	var cells []cell
	for _, alpha := range axes.Alphas {
		for _, stack := range axes.AttnStacks {
			for _, devices := range axes.AttnDeviceCounts {
				for _, linkGBps := range axes.AttnLinkGBps {
					cells = append(cells, cell{alpha, stack, devices, linkGBps})
				}
			}
		}
	}

	out.Points = parallelMap(cells, workers, func(c cell) DSEPoint {
		spec := dseSpec(c.alpha, c.stack, c.devices, c.linkGBps)
		data, err := spec.Export()
		if err != nil {
			panic(fmt.Sprintf("experiments: dse %s: %v", spec.Name, err))
		}
		imported, err := design.ImportSpec(data)
		if err != nil {
			panic(fmt.Sprintf("experiments: dse %s: %v", spec.Name, err))
		}
		cl, err := cluster.NewFromSpecs([]design.Spec{imported}, cfg, cluster.Options{
			Replicas: replicas,
			MaxBatch: maxBatch,
			Router:   cluster.LeastOutstanding(),
			Serving:  serving.DefaultOptions(1),
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: dse %s: %v", spec.Name, err))
		}
		f, err := cl.Run(stream)
		if err != nil {
			panic(fmt.Sprintf("experiments: dse %s: %v", spec.Name, err))
		}
		return DSEPoint{
			Design:         spec.Name,
			Alpha:          c.alpha,
			AttnStack:      c.stack.Label,
			AttnDevices:    c.devices,
			AttnLinkGBps:   c.linkGBps,
			TokensPerSec:   f.TokensPerSecond(),
			JoulesPerToken: f.JoulesPerToken(),
			TPOTP99:        units.Seconds(f.TPOT.P99),
			Attainment:     f.Attainment(slo),
		}
	})

	for _, p := range out.Points {
		if p.Attainment >= target && p.TokensPerSec > out.Best.TokensPerSec {
			out.Best = p
		}
	}
	return out
}

// String renders the design grid and the winning point.
func (r DSEResult) String() string {
	tb := stats.NewTable(
		fmt.Sprintf("Design-space exploration · %s · %s @ %g QPS · %d replica(s) · TPOT SLO %v @ %.0f%%",
			r.Model, r.Dataset, r.RateQPS, r.Replicas, r.SLO.TokenLatency, 100*r.Target),
		"α", "attn stack", "devices", "link", "tok/s", "J/token", "TPOT p99", "attain")
	for _, p := range r.Points {
		tb.AddRow(
			fmt.Sprintf("%g", p.Alpha),
			p.AttnStack,
			fmt.Sprintf("%d", p.AttnDevices),
			fmt.Sprintf("%g GB/s", p.AttnLinkGBps),
			fmt.Sprintf("%.0f", p.TokensPerSec),
			fmt.Sprintf("%.2f", p.JoulesPerToken),
			p.TPOTP99.String(),
			fmt.Sprintf("%.2f", p.Attainment))
	}
	var b strings.Builder
	b.WriteString(tb.String())
	if r.Best.Design != "" {
		fmt.Fprintf(&b, "best under SLO: %s (%.0f tok/s, %.2f J/token)\n",
			r.Best.Design, r.Best.TokensPerSec, r.Best.JoulesPerToken)
	} else {
		b.WriteString("no grid design meets the SLO target\n")
	}
	return b.String()
}
