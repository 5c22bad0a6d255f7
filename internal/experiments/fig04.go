package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/sched"
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

	var out Fig4Result
	for _, spec := range []int{2, 8} {
		for _, batch := range []int{1, 4, 16, 64} {
			k := cfg.FCIterationKernel(batch * spec)
			a, h := sched.MeasureFC(node, hbmpim, k)
			_, t := sched.MeasureFC(node, attacc, k)
			out.Rows = append(out.Rows, Fig4Row{
				Config: Config{Batch: batch, Spec: spec},
				A100:   a,
				HBMPIM: units.Ratio(h, a),
				AttAcc: units.Ratio(t, a),
			})
		}
	}
	for batch := 1; batch <= 256; batch *= 2 {
		if a, t := sched.MeasureFC(node, attacc, cfg.FCIterationKernel(batch*2)); a < t {
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
