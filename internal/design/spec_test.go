package design

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/model"
)

// Every registry spec must validate, build, and carry its own display name
// through to the built system.
func TestRegistryBuilds(t *testing.T) {
	for _, spec := range Registry() {
		sys, err := spec.Build()
		if err != nil {
			t.Errorf("%s: %v", spec.Name, err)
			continue
		}
		if sys.Name != spec.Name {
			t.Errorf("built system named %q from spec %q", sys.Name, spec.Name)
		}
		if spec.Description == "" {
			t.Errorf("%s has no description", spec.Name)
		}
	}
	if _, err := ByName("TPU-pod"); err == nil {
		t.Error("unknown design should error")
	}
	for _, name := range Names() {
		if _, err := ByName(name); err != nil {
			t.Errorf("ByName(%q): %v", name, err)
		}
	}
}

// Build is a pure function of the spec: two builds of the same spec must be
// deeply (bit-)identical, which is what lets cluster replicas and sweep
// cells each own a fresh instance of the same design.
func TestBuildDeterministic(t *testing.T) {
	for _, spec := range Registry() {
		a, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two builds of the same spec differ", spec.Name)
		}
	}
}

// Export → import → export must be byte-identical for every registry spec —
// the same byte-stability contract workload.Trace holds.
func TestSpecRoundTripByteStable(t *testing.T) {
	for _, spec := range Registry() {
		out, err := spec.Export()
		if err != nil {
			t.Fatalf("%s: export: %v", spec.Name, err)
		}
		imported, err := ImportSpec(out)
		if err != nil {
			t.Fatalf("%s: import: %v", spec.Name, err)
		}
		out2, err := imported.Export()
		if err != nil {
			t.Fatalf("%s: re-export: %v", spec.Name, err)
		}
		if !bytes.Equal(out, out2) {
			t.Errorf("%s: export is not byte-stable:\n first: %s\nsecond: %s", spec.Name, out, out2)
		}
		// The imported spec must also build the same hardware.
		a, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		b, err := imported.Build()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: JSON round-trip changed the built system", spec.Name)
		}
	}
}

// Omitted optional pool fields keep the legacy full-datapath defaults: a
// hand-written FC pool that says nothing about its datapath must get
// pim.New's weight reuse and full FC efficiency, not a silently crippled
// device.
func TestOmittedPoolFieldsKeepDefaults(t *testing.T) {
	spec := PAPI(0)
	spec.FCPIM = &PIMSpec{FPUs: 4, Banks: 1, Count: WeightDevices}
	sys, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if !sys.FCPIM.FCWeightReuse {
		t.Error("omitted fc_weight_reuse must keep the weight-reuse datapath")
	}
	if sys.FCPIM.FCComputeEff != 1 {
		t.Errorf("omitted fc_compute_eff = %g, want 1", sys.FCPIM.FCComputeEff)
	}
	// The minimal pool builds the same hardware as the explicit preset.
	want, err := PAPI(0).Build()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sys, want) {
		t.Error("minimal FC pool spec differs from the explicit preset")
	}
}

// FC-PIM-less designs can size their plain-HBM weight pool from the spec,
// and capacity validation follows the declared hardware.
func TestWeightStacksSizesPlainPool(t *testing.T) {
	spec := A100AttAcc()
	def, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	spec.WeightStacks = 2
	small, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := float64(small.WeightCapacity()), float64(def.WeightCapacity())*2/WeightDevices; got != want {
		t.Fatalf("2-stack weight capacity = %g, want %g", got, want)
	}
	// 2 × 16 GiB cannot hold GPT-3 175B; the stock 30 stacks can.
	cfg := model.GPT3_175B()
	if err := def.FitsModel(cfg); err != nil {
		t.Fatalf("stock pool should fit: %v", err)
	}
	if err := small.FitsModel(cfg); err == nil {
		t.Fatal("a 32 GiB weight pool should reject GPT-3 175B")
	}

	// weight_stacks is meaningless next to an FC-PIM pool.
	papi := PAPI(0)
	papi.WeightStacks = 10
	if err := papi.Validate(); err == nil {
		t.Fatal("weight_stacks alongside fc_pim should be rejected")
	}
}

// ImportSpec must reject unknown fields (typos in hand-written specs) and
// invalid documents.
func TestImportRejectsUnknownFields(t *testing.T) {
	spec := PAPI(0)
	out, err := spec.Export()
	if err != nil {
		t.Fatal(err)
	}
	mutated := bytes.Replace(out, []byte(`"name"`), []byte(`"nmae"`), 1)
	if _, err := ImportSpec(mutated); err == nil {
		t.Error("unknown field should be rejected")
	}
	if _, err := ImportSpec([]byte("{")); err == nil {
		t.Error("truncated JSON should be rejected")
	}
}

// The attention-fabric feasibility error the legacy constructors discarded
// (`link, _ := interconnect.AttnFabric(...)`) must now surface through
// Build: a pool too large for every fabric is a build error, not a silent
// zero-bandwidth link.
func TestBuildPropagatesAttnFabricError(t *testing.T) {
	spec := PAPI(0)
	spec.AttnPIM = HBMPIMPool(5000) // beyond CXL's 4096-device fan-out
	if _, err := spec.Build(); err == nil {
		t.Fatal("unaddressable attention pool should fail to build")
	} else if !strings.Contains(err.Error(), "fabric") {
		t.Fatalf("error should name the fabric constraint, got: %v", err)
	}

	// An explicit link bypasses the chooser but still hits the fan-out
	// validation of System.Validate.
	spec = PAPI(0)
	spec.AttnLink = &LinkSpec{Name: "tiny", GBps: 32, LatencyUS: 2, PJPerByte: 10, MaxDevices: 8}
	if _, err := spec.Build(); err == nil {
		t.Fatal("explicit link too small for the pool should fail to build")
	}
}

// Declarative validation must catch structural nonsense before any hardware
// is assembled.
func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no name", func(s *Spec) { s.Name = "" }},
		{"no attention pool", func(s *Spec) { s.AttnPIM = nil }},
		{"no FC engine", func(s *Spec) { s.GPU, s.FCPIM, s.PrefillOnGPU = nil, nil, false }},
		{"prefill without GPU", func(s *Spec) { s.GPU = nil }},
		{"GPU without prefill", func(s *Spec) { s.PrefillOnGPU = false }},
		{"unknown policy", func(s *Spec) { s.Policy.Kind = "mcts" }},
		{"zero-count pool", func(s *Spec) { s.AttnPIM.Count = 0 }},
		{"negative host power", func(s *Spec) { s.HostPowerW = -1 }},
		{"bad FC efficiency", func(s *Spec) { s.AttnPIM.FCComputeEff = 1.5 }},
		{"dead link", func(s *Spec) { s.AttnLink = &LinkSpec{Name: "dead", GBps: 0, MaxDevices: 64} }},
		{"negative alpha", func(s *Spec) { s.Policy.Alpha = -5 }},
		{"NaN alpha", func(s *Spec) { s.Policy.Alpha = math.NaN() }},
		{"infinite alpha", func(s *Spec) { s.Policy.Alpha = math.Inf(1) }},
		{"negative infinite alpha", func(s *Spec) { s.Policy.Alpha = math.Inf(-1) }},
	}
	for _, tc := range cases {
		spec := PAPI(0)
		tc.mutate(&spec)
		if err := spec.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid spec", tc.name)
		}
		if _, err := spec.Build(); err == nil {
			t.Errorf("%s: Build accepted an invalid spec", tc.name)
		}
		if _, err := spec.Export(); err == nil {
			t.Errorf("%s: Export accepted an invalid spec", tc.name)
		}
	}
}

// A die floorplan that violates the Eq. (3) area constraint must fail at
// Build (via hbm.Stack.Validate), so JSON cannot describe unbuildable
// silicon.
func TestBuildRejectsInfeasibleFloorplan(t *testing.T) {
	spec := PAPI(0)
	// 2P1B at the standard 128 banks/die exceeds the 121 mm² die cap.
	spec.AttnPIM = &PIMSpec{FPUs: 2, Banks: 1, BanksPerDie: 128, Count: AttnDevices, FCComputeEff: 0.5}
	if _, err := spec.Build(); err == nil {
		t.Fatal("over-area floorplan should fail to build")
	}
	// The area solver's floorplan for the same organisation is buildable.
	spec.AttnPIM.BanksPerDie = 0
	if _, err := spec.Build(); err != nil {
		t.Fatalf("solver floorplan should build: %v", err)
	}
}
