// The registry-pinning suite: the five evaluated systems became declarative
// registry specs in this layer, and this file proves nothing moved. The
// pre-refactor constructors are preserved below verbatim (they are the
// oracle, the same pattern as sched.calibrateLinear), and every registry
// design must match them bit-for-bit — first structurally (reflect.DeepEqual
// over the full System, which every figure derives from), then behaviourally
// (full serving results on both decode paths). The golden figure fixtures
// under internal/experiments/testdata/golden, regenerated unchanged through
// the spec path, extend the same pin to the fleet-level figures.
package design_test

import (
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/interconnect"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/workload"
)

// Legacy constructors, copied verbatim from the system constructors as they
// stood before the declarative design layer. Do not "fix" or modernise
// these: they are the reference the registry is pinned against.

func legacyAttnPool(stack hbm.Stack, count int) *pim.Device {
	d := pim.New(stack, count)
	d.FCWeightReuse = false
	d.FCComputeEff = 0.5
	return d
}

func legacyNewPAPI(alpha float64) *design.System {
	if alpha <= 0 {
		alpha = design.DefaultAlpha
	}
	link, _ := interconnect.AttnFabric(design.AttnDevices)
	return &design.System{
		Name:         "PAPI",
		GPU:          gpu.DefaultNode(),
		FCPIM:        pim.New(hbm.FCPIMStack(), design.WeightDevices),
		AttnPIM:      legacyAttnPool(hbm.HBMPIMStack(), design.AttnDevices),
		AttnLink:     link,
		PULink:       interconnect.NVLink3(),
		Policy:       sched.Dynamic{Alpha: alpha},
		PrefillOnGPU: true,
		HostPower:    100,
	}
}

func legacyNewA100AttAcc() *design.System {
	link, _ := interconnect.AttnFabric(design.AttnDevices)
	return &design.System{
		Name:         "A100+AttAcc",
		GPU:          gpu.DefaultNode(),
		FCPIM:        nil,
		AttnPIM:      legacyAttnPool(hbm.AttAccStack(), design.AttnDevices),
		AttnLink:     link,
		PULink:       interconnect.NVLink3(),
		Policy:       sched.AlwaysPU(),
		PrefillOnGPU: true,
		HostPower:    100,
	}
}

func legacyNewA100HBMPIM() *design.System {
	link, _ := interconnect.AttnFabric(design.AttnDevices)
	return &design.System{
		Name:         "A100+HBM-PIM",
		GPU:          gpu.DefaultNode(),
		FCPIM:        nil,
		AttnPIM:      legacyAttnPool(hbm.HBMPIMStack(), design.AttnDevices),
		AttnLink:     link,
		PULink:       interconnect.NVLink3(),
		Policy:       sched.AlwaysPU(),
		PrefillOnGPU: true,
		HostPower:    100,
	}
}

func legacyNewAttAccOnly() *design.System {
	link, _ := interconnect.AttnFabric(design.AttnDevices)
	return &design.System{
		Name:         "AttAcc-only",
		GPU:          nil,
		FCPIM:        legacyAttnPool(hbm.AttAccStack(), design.WeightDevices),
		AttnPIM:      legacyAttnPool(hbm.AttAccStack(), design.AttnDevices),
		AttnLink:     link,
		PULink:       interconnect.NVLink3(),
		Policy:       sched.AlwaysPIM(),
		PrefillOnGPU: false,
		HostPower:    100,
	}
}

func legacyNewPIMOnlyPAPI() *design.System {
	link, _ := interconnect.AttnFabric(design.AttnDevices)
	return &design.System{
		Name:         "PIM-only PAPI",
		GPU:          nil,
		FCPIM:        pim.New(hbm.FCPIMStack(), design.WeightDevices),
		AttnPIM:      legacyAttnPool(hbm.HBMPIMStack(), design.AttnDevices),
		AttnLink:     link,
		PULink:       interconnect.NVLink3(),
		Policy:       sched.AlwaysPIM(),
		PrefillOnGPU: false,
		HostPower:    100,
	}
}

// legacyPairs lines each registry design up against its pre-refactor
// constructor.
func legacyPairs() map[string]func() *design.System {
	return map[string]func() *design.System{
		design.DesignPAPI:       func() *design.System { return legacyNewPAPI(0) },
		design.DesignA100AttAcc: legacyNewA100AttAcc,
		design.DesignA100HBMPIM: legacyNewA100HBMPIM,
		design.DesignAttAccOnly: legacyNewAttAccOnly,
		design.DesignPIMOnly:    legacyNewPIMOnlyPAPI,
	}
}

// Every registry design's built System must be deeply (bit-)identical to
// its pre-refactor constructor's — every field, every float, every preset.
// Because the serving engine and every figure are pure functions of the
// System, this is the strongest possible equivalence short of re-running
// each figure (which the serving test below and the golden fixtures do).
func TestRegistryBitIdenticalToLegacyConstructors(t *testing.T) {
	pairs := legacyPairs()
	if len(pairs) != len(design.Names()) {
		t.Fatalf("equivalence covers %d designs, registry has %d", len(pairs), len(design.Names()))
	}
	for name, legacy := range pairs {
		spec, err := design.ByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		built, err := spec.Build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if want := legacy(); !reflect.DeepEqual(built, want) {
			t.Errorf("%s: registry build differs from the pre-refactor constructor\n built: %+v\nlegacy: %+v", name, built, want)
		}
		// The must-build path the simulator uses must match too.
		if !reflect.DeepEqual(design.MustBuild(spec), built) {
			t.Errorf("%s: design.MustBuild diverged from the registry build", name)
		}
	}
	// The alpha parameter must thread through unchanged.
	if !reflect.DeepEqual(design.MustBuild(design.PAPI(64)), legacyNewPAPI(64)) {
		t.Error("design.PAPI(64) differs from the legacy constructor")
	}
}

// Full figure-level pin: run the serving engine — static batch with
// speculation, and mixed continuous batching — on every registry design and
// its legacy twin, and require deeply identical Results (every latency,
// every ledger entry, every trace element).
func TestServingResultsBitIdenticalToLegacy(t *testing.T) {
	cfg := model.LLaMA65B()
	for name, legacy := range legacyPairs() {
		spec, err := design.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		built, err := spec.Build()
		if err != nil {
			t.Fatal(err)
		}
		run := func(sys *design.System) (serving.Result, serving.Result) {
			eng, err := serving.New(sys, cfg, serving.DefaultOptions(4))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			batch, err := eng.RunBatch(workload.GeneralQA().Generate(8, 7))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			eng2, err := serving.New(sys, cfg, serving.DefaultOptions(1))
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cont, err := eng2.RunContinuous(workload.GeneralQA().Poisson(12, 30, 11), 4)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return batch, cont
		}
		gotBatch, gotCont := run(built)
		wantBatch, wantCont := run(legacy())
		if !reflect.DeepEqual(gotBatch, wantBatch) {
			t.Errorf("%s: static-batch result differs from legacy", name)
		}
		if !reflect.DeepEqual(gotCont, wantCont) {
			t.Errorf("%s: continuous-batching result differs from legacy", name)
		}
	}
}
