// Package sched implements PAPI's dynamic parallelism-aware task scheduling
// (§5): the RLP×TLP arithmetic-intensity estimator, the memory-boundedness
// threshold α, the offline α calibration procedure and the decision cost of
// search-based schedulers.
//
// It also provides the static placement policies of the baselines
// (A100+AttAcc, A100+HBM-PIM, AttAcc-only), so the serving engine is
// parameterised over a single Policy interface. The runtime half of §5.2 —
// counting <|eos|> to track RLP and re-placing FC every iteration — is the
// serving stepper's decode window (internal/serving), whose active batch is
// the RLP.
package sched

import (
	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/units"
)

// Placement says where an FC kernel executes. Attention kernels are always
// memory-bound (§4.1) and run on the attention PIM devices in every design,
// so only FC placement is a scheduling decision.
type Placement int

// FC kernel placements.
const (
	// PlacePU runs FC on the high-performance processor's processing units
	// (the GPU tensor cores in our evaluation).
	PlacePU Placement = iota
	// PlaceFCPIM runs FC on the FC-PIM devices.
	PlaceFCPIM
)

// String names the placement.
func (p Placement) String() string {
	if p == PlaceFCPIM {
		return "FC-PIM"
	}
	return "PU"
}

// Policy decides FC placement from the current parallelism.
type Policy interface {
	Name() string
	PlaceFC(rlp, tlp int) Placement
}

// Static policies ------------------------------------------------------------

type staticPolicy struct {
	name  string
	place Placement
}

func (s staticPolicy) Name() string               { return s.name }
func (s staticPolicy) PlaceFC(_, _ int) Placement { return s.place }

// AlwaysPU returns the AttAcc-style static policy: FC on the GPU, always.
func AlwaysPU() Policy { return staticPolicy{name: "static-pu", place: PlacePU} }

// AlwaysPIM returns the PIM-only static policy (AttAcc-only, IANUS): FC on
// PIM, always.
func AlwaysPIM() Policy { return staticPolicy{name: "static-pim", place: PlaceFCPIM} }

// Dynamic policy --------------------------------------------------------------

// Dynamic is PAPI's parallelism-aware policy: estimate AI as RLP×TLP (Eq. 2)
// and compare against the calibrated threshold α (§5.2).
type Dynamic struct {
	// Alpha is the memory-boundedness threshold: estimated AI ≥ Alpha means
	// compute-bound, so FC goes to the PUs; below it FC goes to FC-PIM.
	Alpha float64
}

// Name implements Policy.
func (d Dynamic) Name() string { return "papi-dynamic" }

// PlaceFC implements Policy using the Eq. (2) estimator.
func (d Dynamic) PlaceFC(rlp, tlp int) Placement {
	if model.EstimatedAI(rlp, tlp) >= d.Alpha {
		return PlacePU
	}
	return PlaceFCPIM
}

// Offline α calibration --------------------------------------------------------

// calibrationMax is the highest parallelism level the offline calibration
// considers.
const calibrationMax = 4096

// gpuWinsAt reports whether the PUs beat the FC-PIM units on the FC kernel
// of one decoding iteration at parallelism p.
func gpuWinsAt(cfg model.Config, node *gpu.Node, fcpim *pim.Device, p int) bool {
	k := cfg.FCIterationKernel(p)
	gpuT := node.Execute(k.Flops, k.WeightBytes+k.ActivationBytes).Time
	pimT := fcpim.Execute(pim.Kernel{
		Name:        "fc",
		Flops:       k.Flops,
		UniqueBytes: k.WeightBytes,
	}, 0).Time
	return gpuT < pimT
}

// Calibrate determines the memory-boundedness threshold α by offline
// evaluation (§5.2.1): run the FC kernel of one decoding iteration on both
// the PUs and the FC-PIM units and return the smallest RLP×TLP at which the
// PUs win. The GPU-vs-PIM crossover is monotone in the parallelism — FC
// arithmetic intensity grows linearly with tokens in flight while the PIM
// side stays weight-streaming-bound — so the threshold is found by binary
// search (12 kernel evaluations instead of a linear scan of up to 4096; a
// test pins agreement with the scan on every evaluation model). A custom
// device whose GPU-vs-PIM sign changes more than once would bisect to *a*
// crossover rather than the first — use CalibrationSweep to inspect such
// hardware directly.
func Calibrate(cfg model.Config, node *gpu.Node, fcpim *pim.Device) float64 {
	if gpuWinsAt(cfg, node, fcpim, 1) {
		return 1
	}
	if !gpuWinsAt(cfg, node, fcpim, calibrationMax) {
		return calibrationMax
	}
	// Invariant: the GPU loses at lo and wins at hi.
	lo, hi := 1, calibrationMax
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		if gpuWinsAt(cfg, node, fcpim, mid) {
			hi = mid
		} else {
			lo = mid
		}
	}
	return float64(hi)
}

// calibrateLinear is the reference linear scan Calibrate replaced; the
// calibration test pins the binary search against it.
func calibrateLinear(cfg model.Config, node *gpu.Node, fcpim *pim.Device) float64 {
	for p := 1; p <= calibrationMax; p++ {
		if gpuWinsAt(cfg, node, fcpim, p) {
			return float64(p)
		}
	}
	return calibrationMax
}

// CalibrationTable reports the per-parallelism execution times used to pick
// α; cmd/papicalib prints it.
type CalibrationRow struct {
	Parallelism int
	GPUTime     units.Seconds
	PIMTime     units.Seconds
	Winner      Placement
}

// CalibrationSweep evaluates both targets over the given parallelism levels.
func CalibrationSweep(cfg model.Config, node *gpu.Node, fcpim *pim.Device, levels []int) []CalibrationRow {
	rows := make([]CalibrationRow, 0, len(levels))
	for _, p := range levels {
		k := cfg.FCIterationKernel(p)
		gpuT := node.Execute(k.Flops, k.WeightBytes+k.ActivationBytes).Time
		pimT := fcpim.Execute(pim.Kernel{Name: "fc", Flops: k.Flops, UniqueBytes: k.WeightBytes}, 0).Time
		w := PlaceFCPIM
		if gpuT < pimT {
			w = PlacePU
		}
		rows = append(rows, CalibrationRow{Parallelism: p, GPUTime: gpuT, PIMTime: pimT, Winner: w})
	}
	return rows
}

// Decision cost (§8) ------------------------------------------------------------

// CostedPolicy is a Policy whose placement decision itself takes time. PAPI's
// RLP×TLP predictor is effectively free; prior work's search-based schedulers
// are not (SpecPIM's allocation runs 50 rounds of a genetic algorithm plus
// 10,000 MCTS leaf searches — practical offline, prohibitive per-iteration).
type CostedPolicy interface {
	Policy
	DecisionCost() units.Seconds
}

// Costed wraps a policy with a fixed per-decision latency so the serving
// engine can charge scheduling overhead on the critical path.
type Costed struct {
	Policy
	Cost units.Seconds
}

// DecisionCost implements CostedPolicy.
func (c Costed) DecisionCost() units.Seconds { return c.Cost }

// Name qualifies the wrapped policy's name.
func (c Costed) Name() string { return c.Policy.Name() + "+cost" }
