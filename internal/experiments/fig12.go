package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/workload"
)

// Fig12Bar is one system's per-token decode time, split by phase (ms).
type Fig12Bar struct {
	System      string
	AttentionMS float64
	FCMS        float64
	CommMS      float64
	OtherMS     float64
	TotalMS     float64
	CommShare   float64
}

// Fig12Result reproduces Fig. 12: the execution-time breakdown per token for
// AttAcc-only versus PIM-only PAPI (LLaMA-65B, batch 4, speculation 4).
type Fig12Result struct {
	Bars []Fig12Bar
	// FCSpeedup is PIM-only PAPI's FC advantage (paper: 2.9×).
	FCSpeedup float64
	// AttentionSlowdown is Attn-PIM (1P2B) versus AttAcc (1P1B) on the
	// attention phase (paper: 1.7× slower).
	AttentionSlowdown float64
	// PAPICommShare is communication's share of PIM-only PAPI's decode time
	// (paper: 28.2%).
	PAPICommShare float64
}

// Fig12 measures both systems.
func Fig12() Fig12Result {
	cfg := model.LLaMA65B()
	ds := workload.CreativeWriting()
	c := Config{Batch: 4, Spec: 4}

	bar := func(sys *design.System) Fig12Bar {
		r := runOne(sys, cfg, ds, c)
		tok := float64(r.Tokens)
		total := r.DecodeTime.Seconds()
		return Fig12Bar{
			System:      sys.Name,
			AttentionMS: 1e3 * r.Breakdown.Attention.Seconds() / tok,
			FCMS:        1e3 * r.Breakdown.FC.Seconds() / tok,
			CommMS:      1e3 * r.Breakdown.Communication.Seconds() / tok,
			OtherMS:     1e3 * r.Breakdown.Other.Seconds() / tok,
			TotalMS:     1e3 * total / tok,
			CommShare:   r.Breakdown.Communication.Seconds() / total,
		}
	}
	ao := bar(design.MustBuild(design.AttAccOnly()))
	pp := bar(design.MustBuild(design.PIMOnlyPAPI()))
	return Fig12Result{
		Bars:              []Fig12Bar{ao, pp},
		FCSpeedup:         ao.FCMS / pp.FCMS,
		AttentionSlowdown: pp.AttentionMS / ao.AttentionMS,
		PAPICommShare:     pp.CommShare,
	}
}

// String renders the stacked-bar data.
func (r Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Fig. 12 — Decode time per token (LLaMA-65B, batch 4, spec 4)\n")
	t := stats.NewTable("", "system", "attention", "FC", "communication", "other", "total")
	for _, bar := range r.Bars {
		t.AddRow(bar.System,
			fmt.Sprintf("%.3f ms", bar.AttentionMS),
			fmt.Sprintf("%.3f ms", bar.FCMS),
			fmt.Sprintf("%.3f ms", bar.CommMS),
			fmt.Sprintf("%.3f ms", bar.OtherMS),
			fmt.Sprintf("%.3f ms", bar.TotalMS))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "FC speedup %.2f× (paper 2.9×); attention slowdown %.2f× (paper 1.7×); PAPI comm share %.1f%% (paper 28.2%%)\n",
		r.FCSpeedup, r.AttentionSlowdown, 100*r.PAPICommShare)
	return b.String()
}
