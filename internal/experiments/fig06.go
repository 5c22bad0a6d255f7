package experiments

import (
	"fmt"
	"math"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/stats"
)

// Fig6Row is one bar pair of Fig. 6: the measured (Eq. 1) versus estimated
// (Eq. 2, RLP×TLP) arithmetic intensity of the FC kernel.
type Fig6Row struct {
	RLP, TLP  int
	Measured  float64
	Estimated float64
	RelError  float64
	// DecisionFlip reports whether the estimation error would change the
	// scheduler's placement decision at the calibrated α *materially*:
	// the placements differ and the measured AI is more than 5% away from
	// α. §5.1's argument is exactly this — the estimate only overshoots
	// deep in compute-bound territory, so any boundary-straddling case has
	// near-identical execution times on both targets.
	DecisionFlip bool
}

// Fig6Result reproduces Fig. 6 (GPT-3 66B).
type Fig6Result struct {
	Rows        []Fig6Row
	MaxRelError float64
	AnyFlip     bool
}

// Fig6 evaluates the AI estimator across the paper's RLP × TLP grid.
func Fig6() Fig6Result {
	cfg := model.GPT3_66B()
	var out Fig6Result
	for _, tlp := range []int{8, 6, 4, 2} {
		for _, rlp := range []int{128, 64, 32, 16, 8, 4} {
			measured := model.ExactFCAI(rlp*tlp, cfg.Hidden)
			estimated := model.EstimatedAI(rlp, tlp)
			rel := math.Abs(estimated-measured) / measured
			flip := (measured >= design.DefaultAlpha) != (estimated >= design.DefaultAlpha) &&
				math.Abs(measured-design.DefaultAlpha)/design.DefaultAlpha > 0.05
			out.Rows = append(out.Rows, Fig6Row{
				RLP: rlp, TLP: tlp,
				Measured: measured, Estimated: estimated,
				RelError: rel, DecisionFlip: flip,
			})
			if rel > out.MaxRelError {
				out.MaxRelError = rel
			}
			out.AnyFlip = out.AnyFlip || flip
		}
	}
	return out
}

// String renders the comparison.
func (r Fig6Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 6 — Measured (Eq. 1) vs estimated (Eq. 2) FC arithmetic intensity, GPT-3 66B\n")
	t := stats.NewTable("", "TLP", "RLP", "measured", "estimated", "rel.err", "flips decision")
	for _, row := range r.Rows {
		t.AddRow(
			fmt.Sprintf("%d", row.TLP),
			fmt.Sprintf("%d", row.RLP),
			fmt.Sprintf("%.1f", row.Measured),
			fmt.Sprintf("%.0f", row.Estimated),
			fmt.Sprintf("%.1f%%", 100*row.RelError),
			fmt.Sprintf("%v", row.DecisionFlip))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "max relative error %.1f%%; any placement decision flipped: %v (paper: deviations never flip the decision)\n",
		100*r.MaxRelError, r.AnyFlip)
	return b.String()
}
