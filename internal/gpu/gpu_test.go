package gpu

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/units"
)

func TestA100Spec(t *testing.T) {
	a := A100()
	if float64(a.PeakCompute) != 312e12 {
		t.Fatalf("peak compute = %v", a.PeakCompute)
	}
	if float64(a.PeakMemBW) != 1935e9 {
		t.Fatalf("peak bw = %v", a.PeakMemBW)
	}
	if float64(a.MemCapacity) != 80*units.GiB {
		t.Fatalf("capacity = %v", a.MemCapacity)
	}
}

func TestRidgePoint(t *testing.T) {
	// Fig. 2: the A100 roofline ridge sits at ~161 FLOP/byte. The FC kernel
	// crosses from memory- to compute-bound there.
	n := DefaultNode()
	ridge := n.RidgeAI()
	if math.Abs(ridge-161.24) > 0.1 {
		t.Fatalf("ridge AI = %.2f, want ≈161.2", ridge)
	}
}

func TestAttainableRate(t *testing.T) {
	n := DefaultNode()
	// Memory side: AI=10 → 10 × 1935 GB/s = 19.35 TFLOP/s per device.
	if got := float64(n.AttainableRate(10)); math.Abs(got-19.35e12) > 1e6 {
		t.Fatalf("attainable(10) = %v", n.AttainableRate(10))
	}
	// Compute roof, also for a pure-compute kernel (AI = +Inf).
	for _, ai := range []float64{1000, math.Inf(1)} {
		if got := n.AttainableRate(ai); got != n.Spec.PeakCompute {
			t.Fatalf("attainable(%v) = %v, want the peak", ai, got)
		}
	}
}

func TestExecuteRoofline(t *testing.T) {
	n := DefaultNode()
	n.Spec.LaunchLatency = 0

	// Memory-bound: AI = 4 ≪ ridge.
	memBytes := units.GB(100)
	r := n.Execute(units.FLOPs(4*float64(memBytes)), memBytes)
	if r.ComputeBound {
		t.Fatal("AI=4 kernel should be memory-bound")
	}
	wantT := float64(memBytes) / float64(n.MemBW())
	if math.Abs(float64(r.Time)-wantT) > wantT*1e-9 {
		t.Fatalf("memory-bound time = %v, want %.4g", r.Time, wantT)
	}

	// Compute-bound: AI = 1000 ≫ ridge.
	r = n.Execute(units.FLOPs(1000*float64(memBytes)), memBytes)
	if !r.ComputeBound {
		t.Fatal("AI=1000 kernel should be compute-bound")
	}
	wantT = 1000 * float64(memBytes) / float64(n.ComputeRate())
	if math.Abs(float64(r.Time)-wantT) > wantT*1e-9 {
		t.Fatalf("compute-bound time = %v, want %.4g", r.Time, wantT)
	}
}

func TestCrossoverMatchesEffectiveRidge(t *testing.T) {
	// With efficiencies, the achieved ridge is peak_c×η_c / (peak_m×η_m).
	n := DefaultNode()
	n.Spec.LaunchLatency = 0
	effRidge := float64(n.ComputeRate()) / float64(n.MemBW())
	b := units.GB(1)
	below := n.Execute(units.FLOPs(0.9*effRidge*float64(b)), b)
	above := n.Execute(units.FLOPs(1.1*effRidge*float64(b)), b)
	if below.ComputeBound || !above.ComputeBound {
		t.Fatalf("crossover misplaced: below=%v above=%v (ridge %.1f)", below.ComputeBound, above.ComputeBound, effRidge)
	}
}

func TestEnergyAndIdle(t *testing.T) {
	n := DefaultNode()
	n.Spec.LaunchLatency = 0
	b := units.GB(100)
	r := n.Execute(units.FLOPs(float64(b)), b)
	// 6 GPUs × active power × time.
	wantE := 6 * float64(n.Spec.ActivePower) * float64(r.Time)
	if math.Abs(float64(r.Energy)-wantE) > wantE*1e-9 {
		t.Fatalf("energy = %v, want %.4g", r.Energy, wantE)
	}
}

func TestValidate(t *testing.T) {
	if err := DefaultNode().Validate(); err != nil {
		t.Fatalf("default node invalid: %v", err)
	}
	bad := DefaultNode()
	bad.Count = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero count should fail")
	}
	bad = DefaultNode()
	bad.Spec.ComputeEff = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("efficiency > 1 should fail")
	}
	bad = DefaultNode()
	bad.Spec.PeakMemBW = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero bandwidth should fail")
	}
}

func TestPoolScaling(t *testing.T) {
	one := NewNode(A100(), 1)
	six := NewNode(A100(), 6)
	if r := float64(six.ComputeRate()) / float64(one.ComputeRate()); math.Abs(r-6) > 1e-9 {
		t.Fatalf("compute scaling = %v", r)
	}
	if r := float64(six.MemBW()) / float64(one.MemBW()); math.Abs(r-6) > 1e-9 {
		t.Fatalf("bandwidth scaling = %v", r)
	}
	if six.MemCapacity() != units.Bytes(6*80*units.GiB) {
		t.Fatalf("capacity = %v", six.MemCapacity())
	}
}

// Property: execution time is the roofline max — never below either bound —
// and monotone in work.
func TestRooflineProperty(t *testing.T) {
	n := DefaultNode()
	f := func(fRaw, bRaw uint32) bool {
		flops := units.FLOPs(float64(fRaw)*1e6 + 1)
		bytes := units.Bytes(float64(bRaw)*1e3 + 1)
		r := n.Execute(flops, bytes)
		ct := float64(flops) / float64(n.ComputeRate())
		mt := float64(bytes) / float64(n.MemBW())
		tMin := math.Max(ct, mt)
		got := float64(r.Time) - float64(n.Spec.LaunchLatency)
		if got < tMin*(1-1e-12) {
			return false
		}
		bigger := n.Execute(flops*2, bytes)
		return bigger.Time >= r.Time
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
