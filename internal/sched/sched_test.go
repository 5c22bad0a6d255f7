package sched

import (
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
)

func TestStaticPolicies(t *testing.T) {
	if AlwaysPU().PlaceFC(1, 1) != PlacePU || AlwaysPU().PlaceFC(128, 8) != PlacePU {
		t.Fatal("AlwaysPU must always choose PU")
	}
	if AlwaysPIM().PlaceFC(1, 1) != PlaceFCPIM || AlwaysPIM().PlaceFC(128, 8) != PlaceFCPIM {
		t.Fatal("AlwaysPIM must always choose PIM")
	}
	if AlwaysPU().Name() == "" || AlwaysPIM().Name() == "" {
		t.Fatal("policies need names")
	}
}

func TestDynamicThreshold(t *testing.T) {
	d := Dynamic{Alpha: 28}
	if d.PlaceFC(4, 4) != PlaceFCPIM { // 16 < 28
		t.Fatal("16 < α should go to FC-PIM")
	}
	if d.PlaceFC(16, 2) != PlacePU { // 32 >= 28
		t.Fatal("32 ≥ α should go to PU")
	}
	if d.PlaceFC(28, 1) != PlacePU { // boundary: ≥ is PU
		t.Fatal("boundary goes to PU")
	}
}

func TestCalibrateCrossover(t *testing.T) {
	// The calibrated α for GPT-3 175B with 6 A100s and 30 FC-PIM devices
	// must land in the paper-consistent window: above AttAcc's ~9 crossover
	// (Fig. 4 shows PIM winning at batch 4–8) and below the GPU roofline
	// ridge (~161).
	cfg := model.GPT3_175B()
	node := gpu.DefaultNode()
	fcpim := pim.New(hbm.FCPIMStack(), 30)
	alpha := Calibrate(cfg, node, fcpim)
	if alpha < 12 || alpha > 64 {
		t.Fatalf("calibrated α = %v, want within (12, 64)", alpha)
	}
}

func TestCalibrationSweepConsistent(t *testing.T) {
	cfg := model.LLaMA65B()
	node := gpu.DefaultNode()
	fcpim := pim.New(hbm.FCPIMStack(), 30)
	alpha := Calibrate(cfg, node, fcpim)
	rows := CalibrationSweep(cfg, node, fcpim, []int{1, 2, 4, 8, 16, 32, 64, 128})
	for _, r := range rows {
		wantWinner := PlaceFCPIM
		if float64(r.Parallelism) >= alpha {
			wantWinner = PlacePU
		}
		if r.Winner != wantWinner {
			t.Errorf("p=%d: winner %v, want %v (α=%v, gpu %v pim %v)",
				r.Parallelism, r.Winner, wantWinner, alpha, r.GPUTime, r.PIMTime)
		}
	}
}

func TestPlacementString(t *testing.T) {
	if PlacePU.String() != "PU" || PlaceFCPIM.String() != "FC-PIM" {
		t.Fatal("placement names wrong")
	}
}

// Property: the dynamic decision is monotone — once parallelism is high
// enough for the PUs, more parallelism never flips it back to PIM.
func TestDynamicMonotoneProperty(t *testing.T) {
	d := Dynamic{Alpha: 28}
	f := func(rlpRaw, tlpRaw uint8) bool {
		rlp := int(rlpRaw)%128 + 1
		tlp := int(tlpRaw)%8 + 1
		p := d.PlaceFC(rlp, tlp)
		if p == PlacePU {
			return d.PlaceFC(rlp+1, tlp) == PlacePU && d.PlaceFC(rlp, tlp+1) == PlacePU
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostedPolicy(t *testing.T) {
	base := Dynamic{Alpha: 28}
	c := Costed{Policy: base, Cost: 1}
	if c.DecisionCost() != 1 {
		t.Fatal("cost not reported")
	}
	if c.Name() != "papi-dynamic+cost" {
		t.Fatalf("name = %q", c.Name())
	}
	// Placement behaviour is unchanged by the wrapper.
	if c.PlaceFC(4, 4) != base.PlaceFC(4, 4) || c.PlaceFC(16, 2) != base.PlaceFC(16, 2) {
		t.Fatal("wrapper changed placement decisions")
	}
	// The wrapper satisfies the optional interface.
	var _ CostedPolicy = c
}
