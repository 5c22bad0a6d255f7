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

// Fig10Row is one sweep point: speedups normalised to A100+AttAcc.
type Fig10Row struct {
	Config
	AttAccOnly float64
	PAPI       float64
}

// Fig10Result reproduces Fig. 10: PAPI's sensitivity to RLP and TLP on
// LLaMA-65B / creative-writing.
type Fig10Result struct {
	// BatchSweep is Fig. 10(a): batch 4–128 at speculation length 1.
	BatchSweep []Fig10Row
	// SpecSweep is Fig. 10(b): speculation 1–8 at batch 4.
	SpecSweep []Fig10Row
	// Averages over the TLP sweep (paper: PAPI 1.5× over A100+AttAcc and
	// 3.0× over AttAcc-only on average in (b)).
	SpecAvgVsBase   float64
	SpecAvgVsAttAcc float64
}

// Fig10 runs both sweeps.
func Fig10() Fig10Result {
	cfg := model.LLaMA65B()
	ds := workload.CreativeWriting()
	row := func(c Config) Fig10Row {
		base := runOne(design.MustBuild(design.A100AttAcc()), cfg, ds, c)
		ao := runOne(design.MustBuild(design.AttAccOnly()), cfg, ds, c)
		papi := runOne(design.MustBuild(design.PAPI(0)), cfg, ds, c)
		return Fig10Row{
			Config:     c,
			AttAccOnly: units.Ratio(base.TotalTime(), ao.TotalTime()),
			PAPI:       units.Ratio(base.TotalTime(), papi.TotalTime()),
		}
	}

	var out Fig10Result
	for _, batch := range []int{4, 8, 16, 32, 64, 128} {
		out.BatchSweep = append(out.BatchSweep, row(Config{Batch: batch, Spec: 1}))
	}
	var vsBase, vsAO []float64
	for _, spec := range []int{1, 2, 4, 8} {
		r := row(Config{Batch: 4, Spec: spec})
		out.SpecSweep = append(out.SpecSweep, r)
		vsBase = append(vsBase, r.PAPI)
		vsAO = append(vsAO, r.PAPI/r.AttAccOnly)
	}
	out.SpecAvgVsBase = stats.GeoMean(vsBase)
	out.SpecAvgVsAttAcc = stats.GeoMean(vsAO)
	return out
}

// String renders both sweeps.
func (r Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 10 — Sensitivity to parallelisation level (LLaMA-65B, creative-writing, vs A100+AttAcc)\n")
	render := func(title string, rows []Fig10Row) {
		t := stats.NewTable(title, "config", "A100+AttAcc", "AttAcc-only", "PAPI")
		for _, row := range rows {
			t.AddRow(row.Config.String(), "1.00",
				fmt.Sprintf("%.2f", row.AttAccOnly),
				fmt.Sprintf("%.2f", row.PAPI))
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	render("(a) batch sweep, spec 1", r.BatchSweep)
	render("(b) speculation sweep, batch 4", r.SpecSweep)
	fmt.Fprintf(&b, "TLP-sweep averages: PAPI %.2f× over A100+AttAcc (paper 1.5×), %.2f× over AttAcc-only (paper 3.0×)\n",
		r.SpecAvgVsBase, r.SpecAvgVsAttAcc)
	return b.String()
}
