package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/workload"
)

// Fig8Cell is one configuration's outcome across the four designs,
// normalised to A100+AttAcc (speedup > 1 = faster than the baseline,
// efficiency > 1 = less energy than the baseline).
type Fig8Cell struct {
	Model string
	Config
	Speedup    map[string]float64
	Efficiency map[string]float64
}

// Fig8Result reproduces Fig. 8: end-to-end speedup (top) and energy
// efficiency (bottom) on the creative-writing workload.
type Fig8Result struct {
	Dataset string
	Cells   []Fig8Cell
	// Geomean speedups/efficiencies per design across all cells.
	GeoSpeedup    map[string]float64
	GeoEfficiency map[string]float64
	// Headline ratios: PAPI versus each comparison design (paper: 1.8× over
	// A100+AttAcc, 1.9× over A100+HBM-PIM, 11.1× over AttAcc-only; 3.4×
	// energy efficiency over A100+AttAcc).
	PAPIvsA100AttAcc float64
	PAPIvsHBMPIM     float64
	PAPIvsAttAccOnly float64
	PAPIEnergyVsBase float64
}

// Fig8 runs the full grid: three models × the batch/spec grid × four designs.
func Fig8() Fig8Result {
	return fig8Like(workload.CreativeWriting(),
		[]model.Config{model.LLaMA65B(), model.GPT3_66B(), model.GPT3_175B()},
		design.Fig8Systems())
}

// fig8Like is shared by Fig8 and Fig9.
func fig8Like(ds workload.Dataset, cfgs []model.Config, designs []*design.System) Fig8Result {
	out := Fig8Result{
		Dataset:       ds.Name,
		GeoSpeedup:    map[string]float64{},
		GeoEfficiency: map[string]float64{},
	}
	speedups := map[string][]float64{}
	effs := map[string][]float64{}

	for _, cfg := range cfgs {
		for _, c := range Fig8Grid() {
			cell := Fig8Cell{
				Model:      cfg.Name,
				Config:     c,
				Speedup:    map[string]float64{},
				Efficiency: map[string]float64{},
			}
			baseTime, baseEnergy := 0.0, 0.0
			for i, sys := range designs {
				r := runOne(sys, cfg, ds, c)
				t, e := r.TotalTime().Seconds(), r.Energy.Total().Joules()
				if i == 0 {
					baseTime, baseEnergy = t, e
				}
				cell.Speedup[sys.Name] = baseTime / t
				cell.Efficiency[sys.Name] = baseEnergy / e
				speedups[sys.Name] = append(speedups[sys.Name], baseTime/t)
				effs[sys.Name] = append(effs[sys.Name], baseEnergy/e)
			}
			out.Cells = append(out.Cells, cell)
		}
	}
	for name, xs := range speedups {
		out.GeoSpeedup[name] = stats.GeoMean(xs)
	}
	for name, xs := range effs {
		out.GeoEfficiency[name] = stats.GeoMean(xs)
	}
	papi := out.GeoSpeedup["PAPI"]
	if v := out.GeoSpeedup["A100+AttAcc"]; v > 0 {
		out.PAPIvsA100AttAcc = papi / v
	}
	if v := out.GeoSpeedup["A100+HBM-PIM"]; v > 0 {
		out.PAPIvsHBMPIM = papi / v
	}
	if v := out.GeoSpeedup["AttAcc-only"]; v > 0 {
		out.PAPIvsAttAccOnly = papi / v
	}
	if v := out.GeoEfficiency["A100+AttAcc"]; v > 0 {
		out.PAPIEnergyVsBase = out.GeoEfficiency["PAPI"] / v
	}
	return out
}

// designOrder returns the design names present in the cells, baseline first.
func (r Fig8Result) designOrder() []string {
	if len(r.Cells) == 0 {
		return nil
	}
	order := []string{"A100+AttAcc", "A100+HBM-PIM", "AttAcc-only", "PAPI"}
	var present []string
	for _, name := range order {
		if _, ok := r.Cells[0].Speedup[name]; ok {
			present = append(present, name)
		}
	}
	return present
}

// String renders speedup and efficiency tables plus the headline geomeans.
func (r Fig8Result) String() string {
	var b strings.Builder
	designs := r.designOrder()
	fmt.Fprintf(&b, "Fig. 8-style end-to-end comparison on %s (normalised to A100+AttAcc)\n", r.Dataset)

	render := func(title string, get func(Fig8Cell, string) float64) {
		cols := append([]string{"model", "config"}, designs...)
		t := stats.NewTable(title, cols...)
		for _, cell := range r.Cells {
			row := []string{cell.Model, cell.Config.String()}
			for _, d := range designs {
				row = append(row, fmt.Sprintf("%.2f", get(cell, d)))
			}
			t.AddRow(row...)
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	render("(a) speedup", func(c Fig8Cell, d string) float64 { return c.Speedup[d] })
	render("(b) energy efficiency", func(c Fig8Cell, d string) float64 { return c.Efficiency[d] })

	fmt.Fprintf(&b, "geomean speedup:    ")
	for _, d := range designs {
		fmt.Fprintf(&b, " %s %.2f ", d, r.GeoSpeedup[d])
	}
	fmt.Fprintf(&b, "\ngeomean efficiency: ")
	for _, d := range designs {
		fmt.Fprintf(&b, " %s %.2f ", d, r.GeoEfficiency[d])
	}
	fmt.Fprintf(&b, "\nPAPI vs A100+AttAcc %.2f×", r.PAPIvsA100AttAcc)
	if r.PAPIvsHBMPIM > 0 {
		fmt.Fprintf(&b, " | vs A100+HBM-PIM %.2f×", r.PAPIvsHBMPIM)
	}
	fmt.Fprintf(&b, " | vs AttAcc-only %.2f× | energy vs baseline %.2f×\n",
		r.PAPIvsAttAccOnly, r.PAPIEnergyVsBase)
	return b.String()
}
