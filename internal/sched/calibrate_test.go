package sched

import (
	"testing"

	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
)

// TestCalibrateBinarySearchMatchesLinearScan pins the binary-searched α
// against the reference linear scan on every evaluation model: the
// GPU-vs-PIM crossover must be the same threshold either way.
func TestCalibrateBinarySearchMatchesLinearScan(t *testing.T) {
	node := gpu.DefaultNode()
	fcpim := pim.New(hbm.FCPIMStack(), 30)
	for _, cfg := range model.All() {
		got := Calibrate(cfg, node, fcpim)
		want := calibrateLinear(cfg, node, fcpim)
		if got != want {
			t.Errorf("%s: binary-search α = %v, linear-scan α = %v", cfg.Name, got, want)
		}
	}
}

// TestCalibrateCrossoverMonotone verifies the assumption the binary search
// rests on: once the GPU wins at some parallelism it keeps winning at every
// higher level (checked on a coarse grid around the threshold).
func TestCalibrateCrossoverMonotone(t *testing.T) {
	node := gpu.DefaultNode()
	fcpim := pim.New(hbm.FCPIMStack(), 30)
	for _, cfg := range model.All() {
		alpha := int(Calibrate(cfg, node, fcpim))
		for _, p := range []int{alpha, alpha + 1, alpha + 7, 2 * alpha, 4096} {
			if p > 4096 {
				continue
			}
			if !gpuWinsAt(cfg, node, fcpim, p) {
				t.Errorf("%s: GPU wins at α = %d but loses at %d — crossover not monotone", cfg.Name, alpha, p)
			}
		}
		if alpha > 1 && gpuWinsAt(cfg, node, fcpim, alpha-1) {
			t.Errorf("%s: GPU already wins below α = %d", cfg.Name, alpha)
		}
	}
}
