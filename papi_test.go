package papi

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func TestSimulate(t *testing.T) {
	res, err := Simulate("PAPI", "LLaMA-65B", "creative-writing", 4, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tokens == 0 || res.TotalTime() <= 0 {
		t.Fatalf("suspicious result: %+v", res)
	}
	if res.System != "PAPI" || res.Model != "LLaMA-65B" {
		t.Fatalf("labels: %s / %s", res.System, res.Model)
	}
}

func TestSimulateErrors(t *testing.T) {
	if _, err := Simulate("TPU-pod", "LLaMA-65B", "creative-writing", 4, 1, 1); err == nil {
		t.Error("unknown design should fail")
	}
	if _, err := Simulate("PAPI", "GPT-5", "creative-writing", 4, 1, 1); err == nil {
		t.Error("unknown model should fail")
	}
	if _, err := Simulate("PAPI", "LLaMA-65B", "imagenet", 4, 1, 1); err == nil {
		t.Error("unknown dataset should fail")
	}
	if _, err := Simulate("PAPI", "LLaMA-65B", "creative-writing", 0, 1, 1); err == nil {
		t.Error("zero batch should fail")
	}
	if _, err := Simulate("PAPI", "LLaMA-65B", "creative-writing", 4, 0, 1); err == nil {
		t.Error("zero speculation length should fail")
	}
}

func TestFacadeConstructors(t *testing.T) {
	tuned, err := NewPAPIWithAlpha(32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPAPIWithAlpha(-1); err == nil {
		t.Error("NewPAPIWithAlpha accepted a negative α")
	}
	for _, sys := range []*System{
		NewPAPI(), tuned, NewA100AttAcc(), NewA100HBMPIM(),
		NewAttAccOnly(), NewPIMOnlyPAPI(),
	} {
		if err := sys.Validate(); err != nil {
			t.Errorf("%s: %v", sys.Name, err)
		}
	}
	if len(Designs()) != 4 {
		t.Errorf("Designs() = %d systems, want 4", len(Designs()))
	}
	if len(Models()) != 4 {
		t.Errorf("Models() = %d, want 4", len(Models()))
	}
	for _, m := range Models() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	if _, err := SystemByName("PAPI"); err != nil {
		t.Error(err)
	}
	if _, err := ModelByName("GPT-3 66B"); err != nil {
		t.Error(err)
	}
	if _, err := DatasetByName("general-qa"); err != nil {
		t.Error(err)
	}
	// The arrival constructors hand their errors through; a rejected one
	// returns a nil process, not a nil pointer boxed in the interface.
	if p, err := NewPoisson(20); err != nil || p == nil {
		t.Errorf("NewPoisson(20) = %v, %v", p, err)
	}
	if p, err := NewPoisson(math.NaN()); err == nil || p != nil {
		t.Errorf("NewPoisson(NaN) = %v, %v; want nil and an error", p, err)
	}
	if p, err := NewOnOff(math.Inf(1), 2, 1, 1); err == nil || p != nil {
		t.Errorf("NewOnOff(+Inf burst rate) = %v, %v; want nil and an error", p, err)
	}
	if p, err := NewDiurnal(12, 0.8, Seconds(math.Inf(1))); err == nil || p != nil {
		t.Errorf("NewDiurnal(+Inf period) = %v, %v; want nil and an error", p, err)
	}
}

// Every JSON artifact shipped under examples/ must import, validate, and
// be the byte-stable export of its own value — design specs build a
// System, fault plans validate as plans. README and the docs quote these
// files in runnable commands, and the docs cross-check deliberately skips
// file-path flag values — this is the drift net for the files themselves
// (a renamed field or a stale regeneration fails here, not in a reader's
// terminal). Fault plans are recognised by their "faults" key; everything
// else must be a design spec.
func TestShippedDesignSpecsResolve(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("examples", "*", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no shipped design spec files found under examples/")
	}
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var probe struct {
			Faults []json.RawMessage `json:"faults"`
		}
		if json.Unmarshal(data, &probe) == nil && probe.Faults != nil {
			plan, err := ImportFaultPlan(data)
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			out, err := plan.Export()
			if err != nil {
				t.Errorf("%s: %v", path, err)
				continue
			}
			if !bytes.Equal(out, data) {
				t.Errorf("%s is not the byte-stable export of its own fault plan; regenerate it", path)
			}
			continue
		}
		spec, err := ImportDesignSpec(data)
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if _, err := spec.Build(); err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		out, err := spec.Export()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		if !bytes.Equal(out, data) {
			t.Errorf("%s is not the byte-stable export of its own spec; regenerate it", path)
		}
	}
}

func TestDesignFacade(t *testing.T) {
	names := DesignNames()
	if len(names) != 5 || len(DesignSpecs()) != 5 {
		t.Fatalf("design registry exposes %d names / %d specs, want 5", len(names), len(DesignSpecs()))
	}
	for _, name := range names {
		spec, err := DesignByName(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := spec.Export()
		if err != nil {
			t.Fatal(err)
		}
		imported, err := ImportDesignSpec(data)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := imported.Build()
		if err != nil {
			t.Fatal(err)
		}
		if sys.Name != name {
			t.Errorf("built %q from spec %q", sys.Name, name)
		}
	}

	// A mixed fleet through the facade: replicas cycle the spec list and
	// the result splits per design.
	papiSpec, err := DesignByName("PAPI")
	if err != nil {
		t.Fatal(err)
	}
	baseSpec, err := DesignByName("A100+AttAcc")
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClusterFromSpecs([]DesignSpec{papiSpec, baseSpec}, LLaMA65B(), ClusterOptions{
		Replicas: 2,
		MaxBatch: 8,
		Router:   LeastOutstanding(),
		Serving:  DefaultOptions(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Run(GeneralQA().Poisson(12, 40, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.PerDesign) != 2 {
		t.Fatalf("mixed fleet split has %d designs, want 2", len(f.PerDesign))
	}
	var m FleetDesignMetrics = f.PerDesign[0]
	if m.Design != "PAPI" || m.Replicas != 1 {
		t.Fatalf("first design slice = %+v, want one PAPI replica", m)
	}
}

func TestEngineRoundTrip(t *testing.T) {
	eng, err := NewEngine(NewPAPI(), GPT3_66B(), DefaultOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	res, err := eng.RunBatch(GeneralQA().Generate(8, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations == 0 {
		t.Fatal("no iterations ran")
	}
}

func TestPlacementConstants(t *testing.T) {
	if PlacePU.String() != "PU" || PlaceFCPIM.String() != "FC-PIM" {
		t.Fatal("placement constants broken")
	}
	if DefaultAlpha <= 0 {
		t.Fatal("DefaultAlpha must be positive")
	}
}

func TestCompareFCPlacement(t *testing.T) {
	sys := NewPAPI()
	k := GPT3_175B().FCIterationKernel(4)
	pu, fcpim, err := CompareFCPlacement(sys, k)
	if err != nil {
		t.Fatal(err)
	}
	if fcpim >= pu {
		t.Fatalf("at parallelism 4 FC-PIM (%v) should beat the PUs (%v)", fcpim, pu)
	}
	k = GPT3_175B().FCIterationKernel(256)
	pu, fcpim, err = CompareFCPlacement(sys, k)
	if err != nil {
		t.Fatal(err)
	}
	if pu >= fcpim {
		t.Fatalf("at parallelism 256 the PUs (%v) should beat FC-PIM (%v)", pu, fcpim)
	}
	if _, _, err := CompareFCPlacement(NewAttAccOnly(), k); err == nil {
		t.Fatal("GPU-less system should error")
	}
	if _, _, err := CompareFCPlacement(NewA100AttAcc(), k); err == nil {
		t.Fatal("FC-PIM-less system should error")
	}
}

func TestMoEFacade(t *testing.T) {
	m := Mixtral8x7BLike()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	k := m.FCIterationKernel(8)
	if k.Flops <= 0 || k.WeightBytes <= 0 {
		t.Fatalf("MoE kernel degenerate: %+v", k)
	}
}
