package experiments

import (
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/pim"
)

// These tests assert the *shape* fidelity contract against the paper: who
// wins, where crossovers fall, and that factors are in the paper's ballpark.
// The golden fixtures under testdata/golden/ pin the exact numbers.

func TestFig2Shape(t *testing.T) {
	r := Fig2()
	// (a): FC memory-bound below batch 32, compute-bound at ≥ 32 (spec 8);
	// attention memory-bound everywhere.
	for _, p := range r.SweepA {
		switch {
		case p.Kernel == "attention" && p.Bound != MemoryBound:
			t.Errorf("(a) %s attention should be memory-bound", p.Config)
		case p.Kernel == "ffn" && p.Batch < 32 && p.Bound != MemoryBound:
			t.Errorf("(a) %s FC should be memory-bound", p.Config)
		case p.Kernel == "ffn" && p.Batch >= 32 && p.Bound != ComputeBound:
			t.Errorf("(a) %s FC should be compute-bound", p.Config)
		}
	}
	// (b): FC crosses between spec 6 and 8 at batch 32.
	for _, p := range r.SweepB {
		if p.Kernel != "ffn" {
			continue
		}
		if p.Spec <= 4 && p.Bound != MemoryBound {
			t.Errorf("(b) spec %d FC should be memory-bound", p.Spec)
		}
		if p.Spec == 8 && p.Bound != ComputeBound {
			t.Errorf("(b) spec 8 FC should be compute-bound")
		}
	}
	if s := r.String(); !strings.Contains(s, "memory-bound") || !strings.Contains(s, "compute-bound") {
		t.Error("rendering lost content")
	}
}

func TestFig3Decay(t *testing.T) {
	r := Fig3(32)
	if len(r.IterationsPerRequest) != 32 {
		t.Fatalf("requests = %d", len(r.IterationsPerRequest))
	}
	// Sorted descending, with a real spread.
	first := r.IterationsPerRequest[0]
	last := r.IterationsPerRequest[len(r.IterationsPerRequest)-1]
	if first < 2*last {
		t.Errorf("iteration spread too small: %d..%d", last, first)
	}
	// RLP decays monotonically across the sampled fractions.
	for i := 1; i < 5; i++ {
		if r.RLPAt[i] > r.RLPAt[i-1] {
			t.Errorf("RLP grew between samples: %v", r.RLPAt)
		}
	}
	if r.RLPAt[0] != 32 || r.RLPAt[4] != 1 {
		t.Errorf("RLP endpoints = %v, want 32 .. 1", r.RLPAt)
	}
}

func TestFig4Shape(t *testing.T) {
	r := Fig4()
	for _, row := range r.Rows {
		p := row.Batch * row.Spec
		if p <= 4 && (row.AttAcc >= 1 || row.HBMPIM >= 1) {
			t.Errorf("%s: PIM should beat A100 at low parallelism (AttAcc %.2f, HBM-PIM %.2f)",
				row.Config, row.AttAcc, row.HBMPIM)
		}
		if row.Batch >= 16 && row.AttAcc <= 1.5 {
			t.Errorf("%s: A100 should significantly beat AttAcc (got %.2f)", row.Config, row.AttAcc)
		}
		if row.Batch >= 16 && row.HBMPIM < row.AttAcc {
			t.Errorf("%s: HBM-PIM (1P2B) should be no faster than AttAcc (1P1B) on FC", row.Config)
		}
	}
	// Fig. 4's crossover: between batch 8 and 16 at spec 2.
	if r.CrossoverBatch < 2 || r.CrossoverBatch > 16 {
		t.Errorf("A100/AttAcc crossover at batch %d, want within [2,16]", r.CrossoverBatch)
	}
}

func TestFig6Estimator(t *testing.T) {
	r := Fig6()
	if len(r.Rows) != 24 {
		t.Fatalf("rows = %d, want 24", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Estimated < row.Measured {
			t.Errorf("RLP %d TLP %d: estimate should upper-bound the measurement", row.RLP, row.TLP)
		}
	}
	if r.AnyFlip {
		t.Error("estimation error flipped a placement decision; §5.1 says it must not")
	}
	if r.MaxRelError > 0.25 {
		t.Errorf("max relative error %.2f too large", r.MaxRelError)
	}
}

func TestFig7EnergyShares(t *testing.T) {
	r := Fig7Energy()
	if r.NoReuse[0] < 0.95 || r.NoReuse[0] > 0.99 {
		t.Errorf("no-reuse DRAM share = %.3f, want ≈0.967", r.NoReuse[0])
	}
	if r.Reuse64[0] < 0.25 || r.Reuse64[0] > 0.40 {
		t.Errorf("reuse-64 DRAM share = %.3f, want ≈0.31–0.33", r.Reuse64[0])
	}
	// The command-level measurement agrees with the analytic constant.
	if r.DetailedNoReuseDRAMShare < 0.90 {
		t.Errorf("detailed DRAM share = %.3f, want > 0.90", r.DetailedNoReuseDRAMShare)
	}
}

func TestFig7PowerShape(t *testing.T) {
	r := Fig7Power()
	if r.MinReuse4P1B != 4 {
		t.Errorf("4P1B min in-budget reuse = %v, want 4", r.MinReuse4P1B)
	}
	first := r.Rows[0]
	if first.OneP1B <= r.BudgetW {
		t.Errorf("1P1B at reuse 1 should exceed the budget (%.0f W)", first.OneP1B)
	}
	if !(first.FourP1B > first.TwoP1B && first.TwoP1B > first.OneP1B) {
		t.Errorf("power ordering wrong at reuse 1: %v", first)
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].FourP1B >= r.Rows[i-1].FourP1B {
			t.Error("4P1B power must decrease with reuse")
		}
	}
}

func TestFig11Shape(t *testing.T) {
	r := Fig11()
	if len(r.Rows) != 9 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if row.Speedup <= 1 {
			t.Errorf("%s: hybrid PIM should always beat AttAcc-only (got %.2f)", row.Config, row.Speedup)
		}
	}
	if r.Highest <= r.Lowest {
		t.Errorf("speedup should grow with parallelism: %.2f → %.2f", r.Lowest, r.Highest)
	}
	if r.Average < 1.5 || r.Average > 6 {
		t.Errorf("average %.2f outside the plausible band around the paper's 2.3", r.Average)
	}
}

func TestFig12Shape(t *testing.T) {
	r := Fig12()
	if r.FCSpeedup < 2 {
		t.Errorf("FC speedup %.2f, want ≥ 2 (paper 2.9)", r.FCSpeedup)
	}
	if r.AttentionSlowdown < 1.2 || r.AttentionSlowdown > 2.6 {
		t.Errorf("attention slowdown %.2f, want ≈1.7–2", r.AttentionSlowdown)
	}
	if r.PAPICommShare < 0.10 || r.PAPICommShare > 0.40 {
		t.Errorf("comm share %.2f, want a significant fraction (paper 0.282)", r.PAPICommShare)
	}
	for _, bar := range r.Bars {
		if bar.FCMS < bar.AttentionMS {
			t.Errorf("%s: FC should dominate attention per token", bar.System)
		}
	}
}

func TestAblationDynamicBeatsStatics(t *testing.T) {
	r, err := AblationDynamicVsStatic()
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicMS > r.StaticPUMS*1.001 {
		t.Errorf("dynamic (%0.f ms) should not lose to always-PU (%.0f ms)", r.DynamicMS, r.StaticPUMS)
	}
	if r.DynamicMS > r.StaticPIMMS*1.001 {
		t.Errorf("dynamic (%0.f ms) should not lose to always-PIM (%.0f ms)", r.DynamicMS, r.StaticPIMMS)
	}
	if r.Reschedules == 0 {
		t.Error("the workload should cross α and trigger reschedules")
	}
}

func TestAblationDynamicVsStaticPropagatesErrors(t *testing.T) {
	// A weight pool far too small for LLaMA-65B: serving.New must reject the
	// design, and the ablation must surface that error instead of panicking
	// or returning a partial comparison table.
	_, err := ablationDynamicVsStatic(func() *design.System {
		sys := design.MustBuild(design.PAPI(0))
		sys.FCPIM = pim.New(hbm.AttAccStack(), 1)
		return sys
	})
	if err == nil {
		t.Fatal("ablation on an undersized design should fail")
	}
	if !strings.Contains(err.Error(), "ablation-sched") {
		t.Errorf("error should identify the failing ablation and policy: %v", err)
	}
}

func TestAblationAlphaCalibrationNearOptimum(t *testing.T) {
	r := AblationAlpha()
	var calibratedMS, bestMS float64
	for _, row := range r.Rows {
		if row.Alpha == r.Calibrated {
			calibratedMS = row.TotalMS
		}
		if bestMS == 0 || row.TotalMS < bestMS {
			bestMS = row.TotalMS
		}
	}
	if calibratedMS > bestMS*1.10 {
		t.Errorf("calibrated α is %.1f%% off the sweep optimum", 100*(calibratedMS/bestMS-1))
	}
}

func TestAblationHybridPIMWins(t *testing.T) {
	r := AblationHybridPIM()
	if r.Average <= 1 {
		t.Errorf("hybrid PIM average speedup %.2f, want > 1", r.Average)
	}
}

func TestAblationBatching(t *testing.T) {
	r := AblationBatching()
	if r.Speedup <= 1 {
		t.Errorf("continuous batching should beat static on bursty arrivals, got %.2f", r.Speedup)
	}
}

func TestRenderingsNonEmpty(t *testing.T) {
	ablSched, err := AblationDynamicVsStatic()
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]string{
		"fig3":      Fig3(16).String(),
		"fig4":      Fig4().String(),
		"fig6":      Fig6().String(),
		"fig7e":     Fig7Energy().String(),
		"fig7p":     Fig7Power().String(),
		"fig11":     Fig11().String(),
		"fig12":     Fig12().String(),
		"ablAlpha":  AblationAlpha().String(),
		"ablHybrid": AblationHybridPIM().String(),
		"ablSched":  ablSched.String(),
		"ablBatch":  AblationBatching().String(),
	} {
		if len(s) < 50 || !strings.Contains(s, "\n") {
			t.Errorf("%s rendering suspiciously short: %q", name, s)
		}
	}
}

func TestAblationSchedulingCost(t *testing.T) {
	r := AblationSchedulingCost()
	if len(r.Rows) != 5 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	// Total time is monotone in decision cost, negligible at ≤ 1 µs, and a
	// 50 ms per-iteration search is ruinous (§8's practicality argument).
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].TotalMS < r.Rows[i-1].TotalMS-1e-6 {
			t.Fatalf("total time not monotone in decision cost: %+v", r.Rows)
		}
	}
	if ratio := r.Rows[1].TotalMS / r.Rows[0].TotalMS; ratio > 1.01 {
		t.Errorf("1 µs predictor should be free (ratio %.3f)", ratio)
	}
	if r.SlowdownAt50ms < 2 {
		t.Errorf("50 ms search slowdown = %.2f, should be ruinous", r.SlowdownAt50ms)
	}
	if len(AblationSchedulingCost().String()) < 80 {
		t.Error("rendering too short")
	}
}
