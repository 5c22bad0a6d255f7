// Package sched implements PAPI's dynamic parallelism-aware task scheduling
// (§5): the RLP×TLP arithmetic-intensity estimator, the memory-boundedness
// threshold α, initial and runtime token-level scheduling with <|eos|>
// counting, and the offline α calibration procedure.
//
// It also provides the static placement policies of the baselines
// (A100+AttAcc, A100+HBM-PIM, AttAcc-only), so the serving engine is
// parameterised over a single Policy interface.
package sched

import (
	"fmt"

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

// Runtime scheduler ------------------------------------------------------------

// Event records one scheduling decision, the unit of traces like Fig. 5(d).
type Event struct {
	Iteration   int
	RLP, TLP    int
	EstimatedAI float64
	Placement   Placement
	Rescheduled bool // placement changed versus the previous iteration
}

// Scheduler is the runtime incarnation of §5.2: it owns the RLP counter
// (updated by counting <|eos|> tokens after each decoding) and the TLP (the
// system speculation length, fixed for the run), and emits a placement per
// iteration.
type Scheduler struct {
	policy Policy

	rlp int
	tlp int

	iteration   int
	last        Placement
	hasLast     bool
	reschedules int
}

// NewScheduler builds a runtime scheduler around a policy with the initial
// parallelism configuration (the "initial scheduling" step of §5.2.1:
// RLP = batch size, TLP = system speculation length).
func NewScheduler(p Policy, rlp, tlp int) (*Scheduler, error) {
	if rlp <= 0 || tlp <= 0 {
		return nil, fmt.Errorf("sched: initial RLP %d / TLP %d must be positive", rlp, tlp)
	}
	return &Scheduler{policy: p, rlp: rlp, tlp: tlp}, nil
}

// RLP returns the current request-level parallelism.
func (s *Scheduler) RLP() int { return s.rlp }

// TLP returns the current token-level parallelism.
func (s *Scheduler) TLP() int { return s.tlp }

// Reschedules returns how many placement changes have occurred.
func (s *Scheduler) Reschedules() int { return s.reschedules }

// Repeat advances the scheduler over k further iterations whose scheduling
// inputs are unchanged — the serving fast path's macro-stepping, where RLP
// and TLP are frozen between scheduling events, so every interior iteration
// would Decide the same placement with no reschedule. It must follow a
// Decide call; the iteration counter and reschedule count end up exactly as
// k Decide calls would leave them.
func (s *Scheduler) Repeat(k int) {
	if k > 0 {
		s.iteration += k
	}
}

// ObserveEOS counts <|eos|> tokens in the gathered output vector of the last
// decoding iteration and releases the corresponding RLP (§5.2.2 steps 1–2).
func (s *Scheduler) ObserveEOS(count int) error {
	if count < 0 {
		return fmt.Errorf("sched: negative eos count %d", count)
	}
	if count > s.rlp {
		return fmt.Errorf("sched: eos count %d exceeds RLP %d", count, s.rlp)
	}
	s.rlp -= count
	return nil
}

// Evict releases RLP for requests preempted out of the running batch — the
// admission layer's evict-and-requeue under KV pressure. Unlike ObserveEOS,
// the evicted requests are not finished: they re-enter the pending queue and
// will raise RLP again through AdmitRequests when re-admitted.
func (s *Scheduler) Evict(count int) error {
	if count < 0 {
		return fmt.Errorf("sched: negative evict count %d", count)
	}
	if count > s.rlp {
		return fmt.Errorf("sched: evict count %d exceeds RLP %d", count, s.rlp)
	}
	s.rlp -= count
	return nil
}

// AdmitRequests raises RLP when new requests join the running batch (mixed
// continuous batching).
func (s *Scheduler) AdmitRequests(count int) error {
	if count < 0 {
		return fmt.Errorf("sched: negative admit count %d", count)
	}
	s.rlp += count
	return nil
}

// Decide performs §5.2.2 steps 3–4: predict the next iteration's arithmetic
// intensity from RLP×TLP and choose the FC placement, recording whether this
// is a reschedule.
func (s *Scheduler) Decide() Event {
	p := s.policy.PlaceFC(s.rlp, s.tlp)
	ev := Event{
		Iteration:   s.iteration,
		RLP:         s.rlp,
		TLP:         s.tlp,
		EstimatedAI: model.EstimatedAI(s.rlp, s.tlp),
		Placement:   p,
	}
	if s.hasLast && p != s.last {
		ev.Rescheduled = true
		s.reschedules++
	}
	s.last, s.hasLast = p, true
	s.iteration++
	return ev
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
