package cluster

import (
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// A single-spec fleet is the same fleet NewByName has always built: the
// spec path must not perturb a homogeneous run in any observable way.
func TestFromSpecsMatchesByName(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(24, 50, 3)
	run := func(build func() (*Cluster, error)) *FleetResult {
		c, err := build()
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	spec, err := design.ByName(design.DesignPAPI)
	if err != nil {
		t.Fatal(err)
	}
	a := run(func() (*Cluster, error) {
		return NewFromSpecs([]design.Spec{spec}, model.LLaMA65B(), testOptions(2, LeastOutstanding()))
	})
	b := run(func() (*Cluster, error) {
		return NewByName("PAPI", model.LLaMA65B(), testOptions(2, LeastOutstanding()))
	})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("NewFromSpecs([PAPI]) and NewByName(PAPI) produced different fleet results")
	}
	if a.PerDesign != nil {
		t.Fatal("homogeneous fleet must not carry a per-design split")
	}
	if a.System != "PAPI" {
		t.Fatalf("homogeneous fleet named %q", a.System)
	}
}

// mixedSpecs builds the canonical mixed fleet of the docs: PAPI alongside
// the strongest heterogeneous baseline.
func mixedSpecs(t *testing.T) []design.Spec {
	t.Helper()
	papi, err := design.ByName(design.DesignPAPI)
	if err != nil {
		t.Fatal(err)
	}
	base, err := design.ByName(design.DesignA100AttAcc)
	if err != nil {
		t.Fatal(err)
	}
	return []design.Spec{papi, base}
}

func TestMixedFleetSplitsMetricsPerDesign(t *testing.T) {
	c, err := NewFromSpecs(mixedSpecs(t), model.LLaMA65B(), testOptions(4, LeastOutstanding()))
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	f, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}

	if f.System != "PAPI + A100+AttAcc" {
		t.Fatalf("mixed fleet named %q", f.System)
	}
	if len(f.PerDesign) != 2 {
		t.Fatalf("per-design split has %d entries, want 2", len(f.PerDesign))
	}
	if f.PerDesign[0].Design != "PAPI" || f.PerDesign[1].Design != "A100+AttAcc" {
		t.Fatalf("per-design order %q, %q — want blueprint order", f.PerDesign[0].Design, f.PerDesign[1].Design)
	}

	// Replica i runs design i%2, so a 4-replica fleet splits 2/2.
	var reps, routed, requests, tokens int
	var energy units.Joules
	for _, d := range f.PerDesign {
		if d.Replicas != 2 {
			t.Errorf("%s runs on %d replicas, want 2", d.Design, d.Replicas)
		}
		reps += d.Replicas
		routed += d.Routed
		requests += d.Requests
		tokens += d.Tokens
		energy += d.Energy
		if a := d.Attainment(workload.SLO{TokenLatency: units.Milliseconds(12)}); a < 0 || a > 1 {
			t.Errorf("%s attainment %g outside [0, 1]", d.Design, a)
		}
	}
	// The split must conserve the fleet totals exactly.
	if reps != len(f.Replicas) || routed != len(reqs) || requests != len(f.Requests) || tokens != f.Tokens {
		t.Fatalf("per-design split does not sum to the fleet totals: %d/%d reps, %d/%d routed, %d/%d reqs, %d/%d tokens",
			reps, len(f.Replicas), routed, len(reqs), requests, len(f.Requests), tokens, f.Tokens)
	}
	if energy != f.Energy.Total() {
		t.Fatalf("per-design energy %v does not sum to the fleet total %v", energy, f.Energy.Total())
	}
}

// Mixed fleets are deterministic like homogeneous ones: the same seed must
// reproduce the identical run.
func TestMixedFleetDeterministic(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(24, 50, 7)
	run := func() *FleetResult {
		c, err := NewFromSpecs(mixedSpecs(t), model.LLaMA65B(), testOptions(3, LeastOutstanding()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("mixed fleet is not deterministic")
	}
}

// An autoscaled mixed fleet provisions toward the blueprint ratio: every
// listed design runs from the initial fleet (NewFromSpecs requires
// Replicas ≥ len(specs)), serves traffic, and scale-ups keep restoring the
// mix that load-based drains erode.
func TestMixedFleetAutoscaleKeepsDesignMix(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(12)}
	opt := testOptions(2, LeastOutstanding())
	opt.Autoscale = DefaultAutoscale(1, 4, slo)
	c, err := NewFromSpecs(mixedSpecs(t), model.LLaMA65B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Run(workload.GeneralQA().Poisson(96, 80, 11))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.PerDesign) != 2 {
		t.Fatalf("per-design split has %d entries, want 2", len(f.PerDesign))
	}
	for _, d := range f.PerDesign {
		if d.Replicas == 0 {
			t.Errorf("%s was never provisioned in an autoscaled mixed fleet", d.Design)
		}
		if d.Requests == 0 {
			t.Errorf("%s served no requests despite being provisioned from the start", d.Design)
		}
	}
}

// Deficit-based provisioning restores a design the autoscaler drained:
// with one PAPI replica already serving, the next scale-up of a
// PAPI+baseline fleet must provision the missing baseline, not cycle back
// to PAPI.
func TestNextBlueprintRestoresDrainedDesign(t *testing.T) {
	c, err := NewFromSpecs(mixedSpecs(t), model.LLaMA65B(), testOptions(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.newFleetRun()
	if err != nil {
		t.Fatal(err)
	}
	if got := []string{r.reps[0].design, r.reps[1].design}; got[0] != "PAPI" || got[1] != "A100+AttAcc" {
		t.Fatalf("initial provisioning order %v, want [PAPI A100+AttAcc]", got)
	}
	// Drain the baseline: the serving set is now 100% PAPI, so the next
	// provisioning decision must pick the baseline again.
	r.reps[1].state = repDraining
	if bp := r.nextBlueprint(); bp.name != "A100+AttAcc" {
		t.Fatalf("after draining the baseline, next blueprint = %s, want A100+AttAcc", bp.name)
	}
	// And with the mix restored, the ratio target alternates again.
	r.reps[1].state = repActive
	if bp := r.nextBlueprint(); bp.name != "PAPI" {
		t.Fatalf("with a balanced 1:1 fleet, next blueprint = %s, want PAPI", bp.name)
	}
}

// Repeating a design in the blueprint list (a ratio list) keeps the fleet
// homogeneous: no per-design split for a single distinct name, and results
// identical to the single-spec spelling.
func TestRepeatedSpecSharesDesign(t *testing.T) {
	spec, err := design.ByName(design.DesignPAPI)
	if err != nil {
		t.Fatal(err)
	}
	reqs := workload.GeneralQA().Poisson(24, 50, 3)
	run := func(specs []design.Spec) *FleetResult {
		c, err := NewFromSpecs(specs, model.LLaMA65B(), testOptions(2, LeastOutstanding()))
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := run([]design.Spec{spec})
	b := run([]design.Spec{spec, spec})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated-spec fleet differs from the single-spec fleet")
	}
	if b.PerDesign != nil {
		t.Fatal("repeated-spec homogeneous fleet must not carry a per-design split")
	}
}

// Two *different* designs sharing a display name would silently merge in
// the per-design split; the constructor must reject them.
func TestMixedFleetRejectsConflictingSameNameDesigns(t *testing.T) {
	base, err := design.ByName(design.DesignPAPI)
	if err != nil {
		t.Fatal(err)
	}
	tuned := base
	tuned.Policy = design.PolicySpec{Kind: design.PolicyDynamic, Alpha: 64} // still named "PAPI"
	if _, err := NewFromSpecs([]design.Spec{base, tuned}, model.LLaMA65B(), testOptions(2, nil)); err == nil {
		t.Fatal("two different designs named PAPI should be rejected")
	}
	tuned.Name = "PAPI-tuned"
	if _, err := NewFromSpecs([]design.Spec{base, tuned}, model.LLaMA65B(), testOptions(2, nil)); err != nil {
		t.Fatalf("renamed variant should build: %v", err)
	}
}

// A fleet whose initial size cannot provision every listed design would
// report misleading zeros for the designs that never ran; reject it up
// front. Autoscaled fleets are held to the same bar — scale-ups are
// load-driven and may never happen, so Max does not count.
func TestFromSpecsRejectsUnderProvisionedMix(t *testing.T) {
	specs := mixedSpecs(t)
	if _, err := NewFromSpecs(specs, model.LLaMA65B(), testOptions(1, nil)); err == nil {
		t.Fatal("2 designs on a static 1-replica fleet should be rejected")
	}
	opt := testOptions(1, nil)
	opt.Autoscale = DefaultAutoscale(1, 4, workload.SLO{TokenLatency: units.Milliseconds(12)})
	if _, err := NewFromSpecs(specs, model.LLaMA65B(), opt); err == nil {
		t.Fatal("2 designs on 1 initial replica should be rejected even with autoscale headroom")
	}
	opt = testOptions(2, nil)
	opt.Autoscale = DefaultAutoscale(1, 4, workload.SLO{TokenLatency: units.Milliseconds(12)})
	if _, err := NewFromSpecs(specs, model.LLaMA65B(), opt); err != nil {
		t.Fatalf("2 designs on 2 initial replicas should build: %v", err)
	}
}

// NewFromSpecs must surface spec build errors at construction.
func TestFromSpecsRejectsInvalidSpec(t *testing.T) {
	spec, err := design.ByName(design.DesignPAPI)
	if err != nil {
		t.Fatal(err)
	}
	spec.AttnPIM = design.HBMPIMPool(5000) // beyond every fabric's fan-out
	if _, err := NewFromSpecs([]design.Spec{spec}, model.LLaMA65B(), testOptions(1, nil)); err == nil {
		t.Fatal("unbuildable spec should be rejected at fleet construction")
	}
	if _, err := NewFromSpecs(nil, model.LLaMA65B(), testOptions(1, nil)); err == nil {
		t.Fatal("empty spec list should be rejected")
	}
}
