package hbm

import (
	"math"
	"testing"
	"testing/quick"

	"github.com/papi-sim/papi/internal/units"
)

func TestEq4BankSolver(t *testing.T) {
	// Paper Eq. (4): m(0.1025×4 + 0.83) ≤ 121 ⇒ m ≤ 97, design uses 96.
	if got := FourPerBank.MaxBanksPerDie(); got != 97 {
		t.Fatalf("4P1B max banks = %d, want 97", got)
	}
	if got := FourPerBank.BanksPerDie(); got != 96 {
		t.Fatalf("4P1B banks/die = %d, want 96 (the paper's design point)", got)
	}
}

func TestBankSolverOtherConfigs(t *testing.T) {
	cases := []struct {
		cfg  PIMConfig
		want int
	}{
		{Plain, 144},          // 121/0.83 = 145.8 → 145 → 144
		{OnePerBank, 128},     // 121/0.9325 = 129.7 → 129 → 128
		{OnePerTwoBanks, 136}, // 121/0.88125 = 137.3 → 137 → 136
		{TwoPerBank, 116},     // 121/1.035 = 116.9 → 116
	}
	for _, c := range cases {
		if got := c.cfg.BanksPerDie(); got != c.want {
			t.Errorf("%s banks/die = %d, want %d", c.cfg, got, c.want)
		}
	}
}

func TestPresetStackShapes(t *testing.T) {
	att := AttAccStack()
	if att.Banks() != 1024 || att.FPUs() != 1024 {
		t.Fatalf("AttAcc stack = %d banks / %d FPUs, want 1024/1024", att.Banks(), att.FPUs())
	}
	fc := FCPIMStack()
	if fc.Banks() != 768 || fc.FPUs() != 3072 {
		t.Fatalf("FC-PIM stack = %d banks / %d FPUs, want 768/3072", fc.Banks(), fc.FPUs())
	}
	// FC-PIM capacity is 12 GB (§7.1) because it trades banks for FPUs.
	if got := fc.Capacity(); got != units.Bytes(768*16*units.MiB) {
		t.Fatalf("FC-PIM capacity = %v", got)
	}
	if gib := float64(fc.Capacity()) / units.GiB; math.Abs(gib-12) > 1e-9 {
		t.Fatalf("FC-PIM capacity = %.1f GiB, want 12", gib)
	}
	// Standard stacks are 16 GB.
	hp := HBMPIMStack()
	if hp.Banks() != 1024 || hp.FPUs() != 512 {
		t.Fatalf("HBM-PIM stack = %d banks / %d FPUs, want 1024/512", hp.Banks(), hp.FPUs())
	}
	if gib := float64(hp.Capacity()) / units.GiB; math.Abs(gib-16) > 1e-9 {
		t.Fatalf("HBM-PIM capacity = %.1f GiB, want 16", gib)
	}
	// Note: Attn-PIM/HBM-PIM keeps 128 banks/die (standard capacity) rather
	// than the area-max 136: capacity is the binding design goal there.
}

func TestHBMPIMKeepsStandardBankCount(t *testing.T) {
	// The solver says 1P2B could fit 136 banks, but the commercial HBM-PIM
	// die keeps the plain 128-bank floorplan. Model that choice explicitly.
	s := HBMPIMStack()
	if s.BanksPerDie != 128 {
		t.Fatalf("HBM-PIM banks/die = %d, want 128", s.BanksPerDie)
	}
}

func TestFPURates(t *testing.T) {
	f := DefaultFPU()
	wantRate := 2 * 666e6 * 2.0 // lanes × clock × flops/lane/cycle
	if math.Abs(float64(f.Rate())-wantRate) > 1 {
		t.Fatalf("FPU rate = %v, want %v", f.Rate(), wantRate)
	}
	if math.Abs(float64(f.StreamDemand())-wantRate) > 1 {
		t.Fatalf("FPU stream demand = %v, want 1 B per FLOP", f.StreamDemand())
	}
}

func TestStackRates(t *testing.T) {
	att := AttAccStack()
	// 1024 FPUs × 2.664 GFLOP/s ≈ 2.73 TFLOP/s.
	if got := float64(att.ComputeRate()); math.Abs(got-1024*2.664e9) > 1e6 {
		t.Fatalf("AttAcc compute = %v", att.ComputeRate())
	}
}

func TestDieAreaWithinCap(t *testing.T) {
	for _, s := range []Stack{PlainStack(), AttAccStack(), HBMPIMStack(), FCPIMStack()} {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Config, err)
		}
		if s.DieArea() > DieAreaCapMM2 {
			t.Errorf("%s die area %.2f exceeds cap", s.Config, s.DieArea())
		}
	}
}

func TestValidateFailures(t *testing.T) {
	s := FCPIMStack()
	s.BanksPerDie = 0
	if err := s.Validate(); err == nil {
		t.Error("zero banks should fail validation")
	}
	s = FCPIMStack()
	s.BanksPerDie = 200 // deliberately over-area
	if err := s.Validate(); err == nil {
		t.Error("over-area die should fail validation")
	}
	s = FCPIMStack()
	s.Dies = 4
	if err := s.Validate(); err == nil {
		t.Error("wrong stack height should fail validation")
	}
}

func TestConfigString(t *testing.T) {
	if got := FourPerBank.String(); got != "4P1B" {
		t.Errorf("String = %q", got)
	}
	if got := OnePerTwoBanks.String(); got != "1P2B" {
		t.Errorf("String = %q", got)
	}
	if got := Plain.String(); got != "plain" {
		t.Errorf("String = %q", got)
	}
}

// Property: the solver never violates the area constraint, and adding FPUs
// never increases the feasible bank count.
func TestSolverProperty(t *testing.T) {
	f := func(fpusRaw, banksRaw uint8) bool {
		fpus := int(fpusRaw % 8)
		banks := int(banksRaw%4) + 1
		cfg := PIMConfig{FPUs: fpus, Banks: banks}
		m := cfg.BanksPerDie()
		if m < 0 {
			return false
		}
		if float64(m)*cfg.AreaPerBankMM2() > DieAreaCapMM2+1e-9 {
			return false
		}
		denser := PIMConfig{FPUs: fpus + 1, Banks: banks}
		return denser.BanksPerDie() <= m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
