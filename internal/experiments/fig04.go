package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
)

// Fig4Row is one bar group of Fig. 4: the FC kernel latency on the three
// execution engines at one parallelisation level, normalised to the A100.
type Fig4Row struct {
	Config
	A100   units.Seconds
	HBMPIM float64 // normalised to A100
	AttAcc float64 // normalised to A100
}

// Fig4Result reproduces Fig. 4 (GPT-3 66B FC kernel, §3.3 Shortcoming 1).
type Fig4Result struct {
	Rows []Fig4Row
	// CrossoverBatch is the batch (at spec 2) where the A100 starts beating
	// AttAcc — the figure places it between 8 and 16.
	CrossoverBatch int
}

// Fig4 measures the FC kernel of one decoding iteration on the A100 node,
// Samsung HBM-PIM devices and AttAcc devices across parallelisation levels.
func Fig4() Fig4Result {
	cfg := model.GPT3_66B()
	node := gpu.DefaultNode()
	hbmpim := design.AttentionSpecializedPool(hbm.HBMPIMStack(), design.WeightDevices)
	attacc := design.AttentionSpecializedPool(hbm.AttAccStack(), design.WeightDevices)

	fc := func(d *pim.Device, p int) units.Seconds {
		k := cfg.FCIterationKernel(p)
		return d.Execute(pim.Kernel{Name: "fc", Class: pim.ClassFC, Flops: k.Flops, UniqueBytes: k.WeightBytes}, 0).Time
	}
	gpuT := func(p int) units.Seconds {
		k := cfg.FCIterationKernel(p)
		return node.Execute(k.Flops, k.WeightBytes+k.ActivationBytes).Time
	}

	var out Fig4Result
	for _, spec := range []int{2, 8} {
		for _, batch := range []int{1, 4, 16, 64} {
			p := batch * spec
			a := gpuT(p)
			out.Rows = append(out.Rows, Fig4Row{
				Config: Config{Batch: batch, Spec: spec},
				A100:   a,
				HBMPIM: units.Ratio(fc(hbmpim, p), a),
				AttAcc: units.Ratio(fc(attacc, p), a),
			})
		}
	}
	for batch := 1; batch <= 256; batch *= 2 {
		if gpuT(batch*2) < fc(attacc, batch*2) {
			out.CrossoverBatch = batch
			break
		}
	}
	return out
}

// String renders the normalised-latency table.
func (r Fig4Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 4 — FC kernel latency normalised to A100 (GPT-3 66B)\n")
	t := stats.NewTable("", "config", "A100", "HBM-PIM", "AttAcc")
	for _, row := range r.Rows {
		t.AddRow(row.Config.String(), "1.00",
			fmt.Sprintf("%.2f", row.HBMPIM),
			fmt.Sprintf("%.2f", row.AttAcc))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "A100 overtakes AttAcc at batch %d (spec 2); paper places the crossover between 8 and 16\n",
		r.CrossoverBatch)
	return b.String()
}
