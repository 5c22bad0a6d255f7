package experiments

import (
	"fmt"
	"strings"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/stats"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// Ablations beyond the paper's figures, for the design choices DESIGN.md
// calls out: the α threshold, the hybrid PIM design, dynamic vs static
// scheduling, and continuous vs static batching.

// AlphaRow is one α sweep point.
type AlphaRow struct {
	Alpha   float64
	TotalMS float64
}

// AlphaSweepResult shows how sensitive PAPI is to the memory-boundedness
// threshold and where the calibrated value sits.
type AlphaSweepResult struct {
	Rows       []AlphaRow
	Calibrated float64
	BestAlpha  float64
}

// AblationAlpha sweeps α over a mixed-parallelism workload (batch 32,
// decaying RLP crosses the threshold during the run).
func AblationAlpha() AlphaSweepResult {
	cfg := model.LLaMA65B()
	reqs := workload.CreativeWriting().Generate(32, Seed)
	var out AlphaSweepResult
	out.Calibrated = design.DefaultAlpha
	best := 0.0
	for _, alpha := range []float64{4, 8, 16, 24, 28, 32, 48, 64, 96, 128} {
		eng, err := serving.New(design.MustBuild(design.PAPI(alpha)), cfg, serving.DefaultOptions(1))
		if err != nil {
			panic(err)
		}
		r, err := eng.RunBatch(reqs)
		if err != nil {
			panic(err)
		}
		ms := 1e3 * r.TotalTime().Seconds()
		out.Rows = append(out.Rows, AlphaRow{Alpha: alpha, TotalMS: ms})
		if best == 0 || ms < best {
			best = ms
			out.BestAlpha = alpha
		}
	}
	return out
}

// String renders the sweep.
func (r AlphaSweepResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — α threshold sweep (LLaMA-65B, batch 32, creative-writing)\n")
	t := stats.NewTable("", "alpha", "total time")
	for _, row := range r.Rows {
		mark := ""
		if row.Alpha == r.Calibrated {
			mark = "  <- calibrated"
		}
		t.AddRow(fmt.Sprintf("%.0f", row.Alpha), fmt.Sprintf("%.0f ms%s", row.TotalMS, mark))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "best α in sweep: %.0f (calibrated %.0f)\n", r.BestAlpha, r.Calibrated)
	return b.String()
}

// HybridPIMResult compares PAPI's hybrid PIM pools (4P1B FC-PIM + 1P2B
// Attn-PIM) against a uniform-PIM variant where both pools use the same
// 1P1B devices (with the FC weight-reuse datapath, so the comparison
// isolates the xPyB tailoring of §6.1–6.2, not the datapath).
type HybridPIMResult struct {
	Rows []struct {
		Config
		Speedup float64
	}
	Average float64
}

// AblationHybridPIM runs the decode-only comparison across the grid.
func AblationHybridPIM() HybridPIMResult {
	cfg := model.LLaMA65B()
	ds := workload.CreativeWriting()

	uniform := design.MustBuild(design.PIMOnlyPAPI())
	uniform.Name = "uniform-1P1B"
	uniform.FCPIM = pim.New(hbm.AttAccStack(), design.WeightDevices)
	uniform.AttnPIM = design.AttentionSpecializedPool(hbm.AttAccStack(), design.AttnDevices)

	var out HybridPIMResult
	var xs []float64
	for _, c := range Fig8Grid() {
		u := runOne(uniform, cfg, ds, c)
		h := runOne(design.MustBuild(design.PIMOnlyPAPI()), cfg, ds, c)
		s := units.Ratio(u.DecodeTime, h.DecodeTime)
		out.Rows = append(out.Rows, struct {
			Config
			Speedup float64
		}{c, s})
		xs = append(xs, s)
	}
	out.Average = stats.GeoMean(xs)
	return out
}

// String renders the comparison.
func (r HybridPIMResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — hybrid PIM (4P1B + 1P2B) vs uniform 1P1B pools, decode phase\n")
	t := stats.NewTable("", "config", "hybrid speedup")
	for _, row := range r.Rows {
		t.AddRow(row.Config.String(), fmt.Sprintf("%.2f", row.Speedup))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "average %.2f×\n", r.Average)
	return b.String()
}

// DynamicVsStaticResult compares the PAPI scheduler against both static
// policies on the same PAPI hardware, under an RLP-decaying workload that
// crosses α mid-run — the scenario of Fig. 5(d).
type DynamicVsStaticResult struct {
	DynamicMS   float64
	StaticPUMS  float64
	StaticPIMMS float64
	Reschedules int
}

// AblationDynamicVsStatic runs the three policies on the stock PAPI design.
func AblationDynamicVsStatic() (DynamicVsStaticResult, error) {
	return ablationDynamicVsStatic(func() *design.System { return design.MustBuild(design.PAPI(0)) })
}

// ablationDynamicVsStatic runs the three policies on fresh systems from
// newSys. An engine that fails to build or run under any policy fails the
// whole ablation — a partial table would silently compare policies across
// different hardware.
func ablationDynamicVsStatic(newSys func() *design.System) (DynamicVsStaticResult, error) {
	cfg := model.LLaMA65B()
	reqs := workload.CreativeWriting().Generate(48, Seed)
	run := func(p sched.Policy) (float64, int, error) {
		sys := newSys()
		sys.Policy = p
		eng, err := serving.New(sys, cfg, serving.DefaultOptions(1))
		if err != nil {
			return 0, 0, fmt.Errorf("ablation-sched: policy %s: %w", p.Name(), err)
		}
		r, err := eng.RunBatch(reqs)
		if err != nil {
			return 0, 0, fmt.Errorf("ablation-sched: policy %s: %w", p.Name(), err)
		}
		return 1e3 * r.TotalTime().Seconds(), r.Reschedules, nil
	}
	var out DynamicVsStaticResult
	var err error
	if out.DynamicMS, out.Reschedules, err = run(sched.Dynamic{Alpha: design.DefaultAlpha}); err != nil {
		return DynamicVsStaticResult{}, err
	}
	if out.StaticPUMS, _, err = run(sched.AlwaysPU()); err != nil {
		return DynamicVsStaticResult{}, err
	}
	if out.StaticPIMMS, _, err = run(sched.AlwaysPIM()); err != nil {
		return DynamicVsStaticResult{}, err
	}
	return out, nil
}

// String renders the comparison.
func (r DynamicVsStaticResult) String() string {
	return fmt.Sprintf(`Ablation — dynamic vs static FC placement on PAPI hardware (batch 48, RLP decays across α)
dynamic  %.0f ms (%d reschedules)
always-PU %.0f ms (%.2fx vs dynamic)
always-PIM %.0f ms (%.2fx vs dynamic)
`,
		r.DynamicMS, r.Reschedules,
		r.StaticPUMS, r.StaticPUMS/r.DynamicMS,
		r.StaticPIMMS, r.StaticPIMMS/r.DynamicMS)
}

// BatchingResult compares mixed continuous batching against static batching
// on a bursty arrival stream.
type BatchingResult struct {
	ContinuousMS float64
	StaticMS     float64
	Speedup      float64
}

// AblationBatching runs both batching modes over Poisson arrivals. Static
// batching waits for the full batch before starting (dynamic batching with
// an unbounded time limit, §3.2(c)).
func AblationBatching() BatchingResult {
	cfg := model.LLaMA65B()
	reqs := workload.GeneralQA().Poisson(48, 8, Seed)

	cont, err := serving.New(design.MustBuild(design.PAPI(0)), cfg, serving.DefaultOptions(1))
	if err != nil {
		panic(err)
	}
	rc, err := cont.RunContinuous(reqs, 16)
	if err != nil {
		panic(err)
	}

	// Static: batches of 16 started only when full — the makespan includes
	// waiting for each batch's last arrival.
	stat, err := serving.New(design.MustBuild(design.PAPI(0)), cfg, serving.DefaultOptions(1))
	if err != nil {
		panic(err)
	}
	var clock units.Seconds
	for i := 0; i < len(reqs); i += 16 {
		end := i + 16
		if end > len(reqs) {
			end = len(reqs)
		}
		batch := reqs[i:end]
		if arr := batch[len(batch)-1].Arrival; arr > clock {
			clock = arr
		}
		r, err := stat.RunBatch(batch)
		if err != nil {
			panic(err)
		}
		clock += r.TotalTime()
	}

	out := BatchingResult{
		ContinuousMS: 1e3 * rc.TotalTime().Seconds(),
		StaticMS:     1e3 * clock.Seconds(),
	}
	out.Speedup = out.StaticMS / out.ContinuousMS
	return out
}

// String renders the comparison.
func (r BatchingResult) String() string {
	return fmt.Sprintf(`Ablation — mixed continuous vs static batching (Poisson arrivals, 48 requests)
continuous %.0f ms
static     %.0f ms
continuous speedup %.2fx
`, r.ContinuousMS, r.StaticMS, r.Speedup)
}

// SchedulingCostResult quantifies §8's practicality argument: a placement
// policy that needs a search per decision (SpecPIM-class) pays it on the
// decode critical path, while PAPI's RLP×TLP predictor is effectively free.
type SchedulingCostResult struct {
	Rows []struct {
		CostUS  float64 // per-decision latency, µs
		TotalMS float64
	}
	// SlowdownAt50ms is the end-to-end hit when every iteration re-runs a
	// 50 ms allocation search.
	SlowdownAt50ms float64
}

// AblationSchedulingCost sweeps the per-decision latency.
func AblationSchedulingCost() SchedulingCostResult {
	cfg := model.LLaMA65B()
	reqs := workload.CreativeWriting().Generate(16, Seed)
	run := func(cost units.Seconds) float64 {
		sys := design.MustBuild(design.PAPI(0))
		if cost > 0 {
			sys.Policy = sched.Costed{Policy: sys.Policy, Cost: cost}
		}
		eng, err := serving.New(sys, cfg, serving.DefaultOptions(1))
		if err != nil {
			panic(err)
		}
		r, err := eng.RunBatch(reqs)
		if err != nil {
			panic(err)
		}
		return 1e3 * r.TotalTime().Seconds()
	}
	var out SchedulingCostResult
	base := 0.0
	for _, costUS := range []float64{0, 1, 100, 1000, 50000} {
		ms := run(units.Microseconds(costUS))
		out.Rows = append(out.Rows, struct {
			CostUS  float64
			TotalMS float64
		}{costUS, ms})
		if costUS == 0 {
			base = ms
		}
		if costUS == 50000 {
			out.SlowdownAt50ms = ms / base
		}
	}
	return out
}

// String renders the sweep.
func (r SchedulingCostResult) String() string {
	var b strings.Builder
	b.WriteString("Ablation — per-decision scheduling cost on the decode critical path (§8)\n")
	t := stats.NewTable("", "decision cost", "total time")
	for _, row := range r.Rows {
		t.AddRow(fmt.Sprintf("%.0f µs", row.CostUS), fmt.Sprintf("%.0f ms", row.TotalMS))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "a 50 ms search per iteration (SpecPIM-class) slows decoding %.1f×; PAPI's predictor is O(1)\n",
		r.SlowdownAt50ms)
	return b.String()
}
