package experiments

import (
	"reflect"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

func smallDSEAxes() DSEAxes {
	return DSEAxes{
		Alphas: []float64{8, design.DefaultAlpha},
		AttnStacks: []AttnStackAxis{
			{Label: "1P1B", FPUs: 1, Banks: 1},
			{Label: "1P2B", FPUs: 1, Banks: 2, BanksPerDie: 128},
		},
		AttnDeviceCounts: []int{60},
		AttnLinkGBps:     []float64{32, 64},
	}
}

func smallDSESweep(workers int) DSEResult {
	return DSESweep(smallDSEAxes(), model.LLaMA65B(), workload.GeneralQA(),
		1, 16, 16, 12, workload.SLO{TokenLatency: units.Milliseconds(12)}, 0.9, workers)
}

// The acceptance bar shared by every sweep: the parallel runner must return
// results identical to the serial path — cell for cell, bit for bit.
func TestDSEParallelMatchesSerial(t *testing.T) {
	serial := smallDSESweep(1)
	parallel := smallDSESweep(4)
	if !reflect.DeepEqual(serial, parallel) {
		t.Fatalf("parallel DSE sweep diverged from serial:\nserial:   %+v\nparallel: %+v", serial, parallel)
	}
}

// The default grid must span at least three axes with multiple levels each
// (the acceptance criterion of the design-space figure) and visit every
// combination exactly once, in axis-nesting order.
func TestDSEDefaultGridShape(t *testing.T) {
	axes := DefaultDSEAxes()
	multi := 0
	for _, n := range []int{len(axes.Alphas), len(axes.AttnStacks), len(axes.AttnDeviceCounts), len(axes.AttnLinkGBps)} {
		if n > 1 {
			multi++
		}
	}
	if multi < 3 {
		t.Fatalf("default DSE grid has %d multi-level axes, want ≥ 3", multi)
	}

	r := DSE()
	want := len(axes.Alphas) * len(axes.AttnStacks) * len(axes.AttnDeviceCounts) * len(axes.AttnLinkGBps)
	if len(r.Points) != want {
		t.Fatalf("grid has %d points, want %d", len(r.Points), want)
	}
	seen := map[string]bool{}
	for _, p := range r.Points {
		if seen[p.Design] {
			t.Errorf("design %q evaluated twice", p.Design)
		}
		seen[p.Design] = true
		if p.Attainment < 0 || p.Attainment > 1 {
			t.Errorf("%s: attainment %g outside [0, 1]", p.Design, p.Attainment)
		}
		if p.TokensPerSec <= 0 || p.JoulesPerToken <= 0 {
			t.Errorf("%s: degenerate outcome %+v", p.Design, p)
		}
	}
}

// Best must be exactly the throughput-max point among those meeting the
// target, and (on the default grid at the published rate) some design must
// meet it while some other misses it — otherwise the figure explores a
// region with no feasibility frontier and says nothing.
func TestDSEBestAndFrontier(t *testing.T) {
	r := DSE()
	var best DSEPoint
	pass, fail := 0, 0
	for _, p := range r.Points {
		if p.Attainment >= r.Target {
			pass++
			if p.TokensPerSec > best.TokensPerSec {
				best = p
			}
		} else {
			fail++
		}
	}
	if pass == 0 || fail == 0 {
		t.Fatalf("default grid has no feasibility frontier: %d pass, %d fail", pass, fail)
	}
	if !reflect.DeepEqual(r.Best, best) {
		t.Fatalf("Best = %+v, want the throughput-max SLO-meeting point %+v", r.Best, best)
	}
	if !strings.Contains(r.String(), "best under SLO") {
		t.Fatal("rendered figure does not report the winning design")
	}
}

// Every grid cell round-trips its spec through JSON before building; the
// spec realiser must therefore always produce exportable, buildable specs,
// and the calibrated registry point must be on the grid.
func TestDSESpecsExportAndBuild(t *testing.T) {
	axes := DefaultDSEAxes()
	foundDefault := false
	for _, alpha := range axes.Alphas {
		for _, stack := range axes.AttnStacks {
			for _, devices := range axes.AttnDeviceCounts {
				for _, linkGBps := range axes.AttnLinkGBps {
					spec := dseSpec(alpha, stack, devices, linkGBps)
					data, err := spec.Export()
					if err != nil {
						t.Fatalf("%s: %v", spec.Name, err)
					}
					imported, err := design.ImportSpec(data)
					if err != nil {
						t.Fatalf("%s: %v", spec.Name, err)
					}
					if _, err := imported.Build(); err != nil {
						t.Fatalf("%s: %v", spec.Name, err)
					}
					if alpha == design.DefaultAlpha && stack.Label == "1P2B" &&
						devices == design.AttnDevices && linkGBps == 32 {
						foundDefault = true
					}
				}
			}
		}
	}
	if !foundDefault {
		t.Fatal("default grid does not include the paper's PAPI point (α=28, 1P2B×60 @32GB/s)")
	}
}
