package design

import (
	"testing"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/units"
)

// evaluatedSystems builds the Fig. 8 systems plus the §7.4 PIM-only PAPI.
func evaluatedSystems() []*System {
	return append(Fig8Systems(), MustBuild(PIMOnlyPAPI()))
}

func TestAllDesignsValid(t *testing.T) {
	for _, s := range evaluatedSystems() {
		if err := s.Validate(); err != nil {
			t.Errorf("%s: %v", s.Name, err)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"PAPI", "A100+AttAcc", "A100+HBM-PIM", "AttAcc-only", "PIM-only PAPI"} {
		spec, err := ByName(name)
		if err != nil {
			t.Errorf("ByName(%q): %v", name, err)
			continue
		}
		s, err := spec.Build()
		if err != nil || s.Name != name {
			t.Errorf("ByName(%q).Build() = %v, %v", name, s, err)
		}
	}
	if _, err := ByName("TPU-pod"); err == nil {
		t.Error("unknown design should error")
	}
}

func TestDesignShapes(t *testing.T) {
	papi := MustBuild(PAPI(0))
	if !papi.HasGPU() || papi.FCPIM == nil {
		t.Fatal("PAPI needs both GPU and FC-PIM")
	}
	if papi.FCPIM.Stack.Config.String() != "4P1B" {
		t.Fatalf("PAPI FC-PIM config = %s, want 4P1B", papi.FCPIM.Stack.Config)
	}
	if papi.AttnPIM.Stack.Config.String() != "1P2B" {
		t.Fatalf("PAPI Attn-PIM config = %s, want 1P2B", papi.AttnPIM.Stack.Config)
	}
	if _, ok := papi.Policy.(sched.Dynamic); !ok {
		t.Fatal("PAPI must use the dynamic policy")
	}

	aa := MustBuild(A100AttAcc())
	if aa.FCPIM != nil {
		t.Fatal("A100+AttAcc FC runs only on the GPU")
	}
	if aa.AttnPIM.Stack.Config.String() != "1P1B" {
		t.Fatalf("AttAcc attention config = %s, want 1P1B", aa.AttnPIM.Stack.Config)
	}

	ao := MustBuild(AttAccOnly())
	if ao.HasGPU() {
		t.Fatal("AttAcc-only has no GPU")
	}
	if ao.PrefillOnGPU {
		t.Fatal("AttAcc-only must prefill on PIM")
	}
}

func TestDeviceCounts(t *testing.T) {
	// §7.1: "each of the computing systems has 90 HBM devices, 30 for
	// storing the weight parameters of FC kernels and 60 for attention".
	for _, s := range evaluatedSystems() {
		if s.AttnPIM.Count != 60 {
			t.Errorf("%s: %d attention devices, want 60", s.Name, s.AttnPIM.Count)
		}
		if s.FCPIM != nil && s.FCPIM.Count != 30 {
			t.Errorf("%s: %d FC-PIM devices, want 30", s.Name, s.FCPIM.Count)
		}
	}
}

func TestGPT175BFitsEveryDesign(t *testing.T) {
	// §7.1: GPT-3 175B needs 350 GB; PAPI's weight pool is 30 × 12 GB =
	// 360 GB (the reason six 60 GB GPUs are needed).
	cfg := model.GPT3_175B()
	for _, s := range Fig8Systems() {
		if err := s.FitsModel(cfg); err != nil {
			t.Errorf("%v", err)
		}
	}
	papi := MustBuild(PAPI(0))
	gib := float64(papi.WeightCapacity()) / units.GiB
	if gib != 360 {
		t.Errorf("PAPI weight capacity = %.0f GiB, want 360", gib)
	}
}

func TestValidateCatchesBrokenSystems(t *testing.T) {
	s := MustBuild(PAPI(0))
	s.GPU = nil
	s.FCPIM = nil
	if err := s.Validate(); err == nil {
		t.Error("no FC engine should fail")
	}

	s = MustBuild(PAPI(0))
	s.AttnPIM = nil
	if err := s.Validate(); err == nil {
		t.Error("no attention engine should fail")
	}

	s = MustBuild(PAPI(0))
	s.Policy = nil
	if err := s.Validate(); err == nil {
		t.Error("no policy should fail")
	}

	s = MustBuild(PAPI(0))
	s.PrefillOnGPU = false
	if err := s.Validate(); err == nil {
		t.Error("GPU present but prefill on PIM should fail")
	}

	s = MustBuild(PAPI(0))
	s.AttnLink.MaxDevices = 10
	if err := s.Validate(); err == nil {
		t.Error("fabric too small for 60 devices should fail")
	}
}

func TestAttnFabricIsCXL(t *testing.T) {
	// 60 disaggregated devices exceed PCIe's 32-device limit; §6.3 says CXL
	// scales to 4096 — the builder must have picked it.
	s := MustBuild(PAPI(0))
	if s.AttnLink.Name != "CXL2" {
		t.Fatalf("attention fabric = %s, want CXL2", s.AttnLink.Name)
	}
}

func TestDefaultAlphaNearCalibration(t *testing.T) {
	// The constant must stay consistent with the offline calibration for the
	// largest model (if hardware constants change, this catches drift).
	papi := MustBuild(PAPI(0))
	got := sched.Calibrate(model.GPT3_175B(), papi.GPU, papi.FCPIM)
	if got < DefaultAlpha/2 || got > DefaultAlpha*2 {
		t.Fatalf("calibrated α = %v diverged from DefaultAlpha %v", got, DefaultAlpha)
	}
}
