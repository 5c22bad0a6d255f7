package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/stats"
)

// Boundedness classifies a kernel against the Fig. 2 roofline.
type Boundedness int

// Kernel boundedness classes.
const (
	MemoryBound Boundedness = iota
	ComputeBound
)

// String names the class.
func (b Boundedness) String() string {
	if b == ComputeBound {
		return "compute-bound"
	}
	return "memory-bound"
}

// Fig2Point is one dot on the Fig. 2 roofline plot.
type Fig2Point struct {
	Config
	Kernel           string
	AI               float64
	AttainableTFLOPS float64
	Bound            Boundedness
}

// Fig2Result reproduces Fig. 2: the OPT-30B roofline study on the A100.
type Fig2Result struct {
	RidgeAI float64
	// SweepA is Fig. 2(a): batch 4..128 at speculation length 8.
	SweepA []Fig2Point
	// SweepB is Fig. 2(b): speculation 2..8 at batch 32.
	SweepB []Fig2Point
}

// Fig2 runs the roofline characterisation.
func Fig2() Fig2Result {
	cfg := model.OPT30B()
	// The published peaks, not efficiency-derated: the figure plots the
	// theoretical envelope of one A100.
	a100 := gpu.NewNode(gpu.A100(), 1)
	res := Fig2Result{RidgeAI: a100.RidgeAI()}
	kvLens := func(batch int) []int {
		ls := make([]int, batch)
		for i := range ls {
			ls[i] = 1024 // mid-generation context, as in the paper's setup
		}
		return ls
	}

	for _, batch := range []int{4, 8, 16, 32, 64, 128} {
		c := Config{Batch: batch, Spec: 8}
		res.SweepA = append(res.SweepA,
			fig2Point(a100, c, cfg.FFNKernel(batch*c.Spec)),
			fig2Point(a100, c, cfg.AttentionKernel(c.Spec, kvLens(batch))))
	}
	for _, spec := range []int{2, 4, 6, 8} {
		c := Config{Batch: 32, Spec: spec}
		res.SweepB = append(res.SweepB,
			fig2Point(a100, c, cfg.FFNKernel(c.Batch*spec)),
			fig2Point(a100, c, cfg.AttentionKernel(spec, kvLens(c.Batch))))
	}
	return res
}

// fig2Point places kernel k, run in configuration c, on the roofline of one
// device of node: compute-bound at or above the ridge, memory-bound below it.
func fig2Point(node *gpu.Node, c Config, k model.Kernel) Fig2Point {
	ai := k.AI()
	bound := MemoryBound
	if ai >= node.RidgeAI() {
		bound = ComputeBound
	}
	return Fig2Point{
		Config:           c,
		Kernel:           k.Kind.String(),
		AI:               ai,
		AttainableTFLOPS: node.AttainableRate(ai).FLOPSPerSec() / 1e12,
		Bound:            bound,
	}
}

// String renders both sweeps.
func (r Fig2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig. 2 — Roofline of OPT-30B decoding kernels on A100 (ridge = %.0f FLOP/B)\n", r.RidgeAI)
	render := func(title string, pts []Fig2Point) {
		t := stats.NewTable(title, "config", "kernel", "AI (FLOP/B)", "attainable", "bound")
		for _, p := range pts {
			t.AddRow(p.Config.String(), p.Kernel,
				fmt.Sprintf("%.1f", p.AI),
				fmt.Sprintf("%.1f TFLOP/s", p.AttainableTFLOPS),
				p.Bound.String())
		}
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	render("(a) batch sweep, speculation length 8", r.SweepA)
	render("(b) speculation sweep, batch 32", r.SweepB)
	return b.String()
}
