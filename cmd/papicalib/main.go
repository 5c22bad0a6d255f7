// Command papicalib runs the offline α-threshold calibration of §5.2.1: it
// executes the FC kernel of one decoding iteration on both the GPU PUs and
// the FC-PIM devices across parallelisation levels and reports where the
// crossover falls for each evaluation model.
package main

import (
	"flag"
	"fmt"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/stats"
)

func main() {
	verbose := flag.Bool("v", false, "print the full sweep tables")
	flag.Parse()

	sys := design.MustBuild(design.PAPI(0))
	levels := []int{1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 48, 64, 96, 128}

	summary := stats.NewTable("Offline α calibration (GPU PUs vs FC-PIM, one decoding iteration of FC)",
		"model", "crossover α")
	for _, cfg := range model.All() {
		alpha := sched.Calibrate(cfg, sys.GPU, sys.FCPIM)
		summary.AddRow(cfg.Name, fmt.Sprintf("%.0f", alpha))
		if *verbose {
			t := stats.NewTable(cfg.Name, "RLP×TLP", "GPU time", "FC-PIM time", "winner")
			for _, row := range sched.CalibrationSweep(cfg, sys.GPU, sys.FCPIM, levels) {
				t.AddRow(fmt.Sprintf("%d", row.Parallelism),
					row.GPUTime.String(), row.PIMTime.String(), row.Winner.String())
			}
			fmt.Println(t.String())
		}
	}
	fmt.Println(summary.String())
	fmt.Printf("configured default: α = %d\n\n", design.DefaultAlpha)

	// §6.1–6.2: derive the hybrid PIM devices from the area and power
	// constraints (FC reuse ≥ 4 at the evaluated parallelism; attention
	// reuse ≈ 1 in the worst case).
	fc, attn, err := pim.DeriveHybridPIM(pim.DefaultEnergyModel(), 4, 1)
	if err != nil {
		fmt.Println("hybrid PIM derivation failed:", err)
		return
	}
	d := stats.NewTable("Hybrid PIM derivation (area Eq. 3 + 116 W budget)",
		"role", "config", "banks/stack", "FPUs/stack", "capacity", "min in-budget reuse")
	d.AddRow("FC-PIM", fc.Stack.Config.String(),
		fmt.Sprintf("%d", fc.Stack.Banks()), fmt.Sprintf("%d", fc.Stack.FPUs()),
		fc.Capacity().String(), fmt.Sprintf("%.0f", fc.MinInBudgetReuse))
	d.AddRow("Attn-PIM", attn.Stack.Config.String(),
		fmt.Sprintf("%d", attn.Stack.Banks()), fmt.Sprintf("%d", attn.Stack.FPUs()),
		attn.Capacity().String(), fmt.Sprintf("%.0f", attn.MinInBudgetReuse))
	fmt.Println(d.String())
}
