package experiments

import (
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/workload"
)

// Fig. 8/9/10 are the heavyweight sweeps; kept in their own file so -short
// runs can skip them.

func TestFig8Headlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 8 grid")
	}
	r := Fig8()
	if len(r.Cells) != 27 {
		t.Fatalf("cells = %d, want 3 models × 9 configs", len(r.Cells))
	}
	// Headline bands: who wins and by roughly what factor. Paper values:
	// 1.8× / 1.9× / 11.1× and 3.4× energy. Our substrate reproduces the
	// first two closely and the AttAcc-only gap within a factor of two
	// (testdata/golden/8.json pins the measured numbers).
	if r.PAPIvsA100AttAcc < 1.4 || r.PAPIvsA100AttAcc > 2.6 {
		t.Errorf("PAPI vs A100+AttAcc = %.2f, want ≈1.8", r.PAPIvsA100AttAcc)
	}
	if r.PAPIvsHBMPIM < r.PAPIvsA100AttAcc {
		t.Errorf("PAPI must beat A100+HBM-PIM at least as much as A100+AttAcc")
	}
	if r.PAPIvsAttAccOnly < 4 {
		t.Errorf("PAPI vs AttAcc-only = %.2f, want ≫ 1 (paper 11.1)", r.PAPIvsAttAccOnly)
	}
	if r.PAPIEnergyVsBase < 1.8 {
		t.Errorf("PAPI energy efficiency = %.2f, want ≫ 1 (paper 3.4)", r.PAPIEnergyVsBase)
	}
	// PAPI never loses badly anywhere.
	for _, cell := range r.Cells {
		if s := cell.Speedup["PAPI"]; s < 0.90 {
			t.Errorf("%s %s: PAPI speedup %.2f < 0.90", cell.Model, cell.Config, s)
		}
	}
	if !strings.Contains(r.String(), "geomean") {
		t.Error("rendering lost the geomeans")
	}
}

func TestFig9Headlines(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 9 grid")
	}
	r := Fig9()
	if r.Dataset != "general-qa" {
		t.Fatalf("dataset = %s", r.Dataset)
	}
	if r.PAPIvsA100AttAcc < 1.2 {
		t.Errorf("PAPI vs A100+AttAcc on general-qa = %.2f, want > 1.2 (paper 1.7)", r.PAPIvsA100AttAcc)
	}
	if r.PAPIvsAttAccOnly < 3 {
		t.Errorf("PAPI vs AttAcc-only on general-qa = %.2f (paper 8.1)", r.PAPIvsAttAccOnly)
	}
	// §7.2 reports general-qa speedups ≈6% below creative-writing's (1.7 vs
	// 1.8). Our substrate lands both in the same band but with the ordering
	// inverted by a similar few percent (shorter general-qa outputs shrink
	// the attention/communication phases that dilute PAPI's FC advantage);
	// testdata/golden/8.json and 9.json pin both sides. Here we assert the
	// two datasets stay within a common band of each other.
	cw := fig8Like(workload.CreativeWriting(),
		[]model.Config{model.GPT3_175B()},
		[]*design.System{design.MustBuild(design.A100AttAcc()), design.MustBuild(design.AttAccOnly()), design.MustBuild(design.PAPI(0))})
	if ratio := r.PAPIvsA100AttAcc / cw.PAPIvsA100AttAcc; ratio < 0.8 || ratio > 1.25 {
		t.Errorf("general-qa speedup (%.2f) diverged from creative-writing (%.2f) beyond ±25%%",
			r.PAPIvsA100AttAcc, cw.PAPIvsA100AttAcc)
	}
	if ratio := r.PAPIvsAttAccOnly / cw.PAPIvsAttAccOnly; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("general-qa AttAcc-only gap (%.2f) diverged from creative-writing's (%.2f)",
			r.PAPIvsAttAccOnly, cw.PAPIvsAttAccOnly)
	}
}

func TestFig10Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fig. 10 sweeps")
	}
	r := Fig10()
	// (a): AttAcc-only beats the baseline at batch 4 but collapses as RLP
	// grows; PAPI stays ≥ ~parity everywhere.
	if r.BatchSweep[0].AttAccOnly <= 1 {
		t.Errorf("batch 4: AttAcc-only should beat A100+AttAcc (got %.2f)", r.BatchSweep[0].AttAccOnly)
	}
	last := r.BatchSweep[len(r.BatchSweep)-1]
	if last.AttAccOnly >= 0.5 {
		t.Errorf("batch 128: AttAcc-only should collapse (got %.2f)", last.AttAccOnly)
	}
	for _, row := range r.BatchSweep {
		if row.PAPI < 0.90 {
			t.Errorf("%s: PAPI %.2f < 0.90", row.Config, row.PAPI)
		}
	}
	// (b): PAPI's advantage shrinks as TLP grows (§7.3) and the averages
	// land near the paper's 1.5× / 3.0×.
	first, lastSpec := r.SpecSweep[0], r.SpecSweep[len(r.SpecSweep)-1]
	if first.PAPI <= lastSpec.PAPI {
		t.Errorf("PAPI speedup should shrink with TLP: %.2f → %.2f", first.PAPI, lastSpec.PAPI)
	}
	if r.SpecAvgVsBase < 1.2 || r.SpecAvgVsBase > 3.5 {
		t.Errorf("TLP-sweep average vs baseline = %.2f (paper 1.5)", r.SpecAvgVsBase)
	}
	if r.SpecAvgVsAttAcc < 1.5 {
		t.Errorf("TLP-sweep average vs AttAcc-only = %.2f (paper 3.0)", r.SpecAvgVsAttAcc)
	}
}
