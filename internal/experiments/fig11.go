package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Fig11Row is one grid point: the decoding-phase speedup of the PIM-only
// PAPI system (FC-PIM + Attn-PIM, no GPU) over AttAcc-only.
type Fig11Row struct {
	Config
	Speedup float64
}

// Fig11Result reproduces Fig. 11 (§7.4): the benefit of the hybrid PIM
// design in isolation. Decoding phase only — the paper excludes prefill here
// since it belongs on the GPU in the full system.
type Fig11Result struct {
	Rows []Fig11Row
	// Average speedup (paper: 2.3×, rising from 1.6× at (4,1) to 2.7× at
	// (64,4) as FC becomes more computation-intensive).
	Average float64
	Lowest  float64 // at the lowest-parallelism corner
	Highest float64 // at the highest-parallelism corner
}

// Fig11 runs the 3×3 grid on LLaMA-65B / creative-writing.
func Fig11() Fig11Result {
	cfg := model.LLaMA65B()
	ds := workload.CreativeWriting()
	var out Fig11Result
	var xs []float64
	for _, c := range Fig8Grid() {
		ao := runOne(design.MustBuild(design.AttAccOnly()), cfg, ds, c)
		pp := runOne(design.MustBuild(design.PIMOnlyPAPI()), cfg, ds, c)
		s := units.Ratio(ao.DecodeTime, pp.DecodeTime)
		out.Rows = append(out.Rows, Fig11Row{Config: c, Speedup: s})
		xs = append(xs, s)
		if c.Batch == 4 && c.Spec == 1 {
			out.Lowest = s
		}
		if c.Batch == 64 && c.Spec == 4 {
			out.Highest = s
		}
	}
	out.Average = stats.GeoMean(xs)
	return out
}

// String renders the grid.
func (r Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 11 — PIM-only PAPI vs AttAcc-only, decoding phase (LLaMA-65B, creative-writing)\n")
	t := stats.NewTable("", "config", "speedup")
	for _, row := range r.Rows {
		t.AddRow(row.Config.String(), fmt.Sprintf("%.2f", row.Speedup))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "average %.2f× (paper 2.3×); (4,1) %.2f× (paper 1.6×) → (64,4) %.2f× (paper 2.7×)\n",
		r.Average, r.Lowest, r.Highest)
	return b.String()
}
