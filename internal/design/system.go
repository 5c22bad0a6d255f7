// Package design is the declarative hardware design layer: it owns the
// System type (one complete evaluated computing system), a serializable
// Spec describing a system's every knob — GPU node, HBM stack organisations,
// FC/Attn device counts, link parameters, scheduling policy and α, prefill
// placement, host power — with byte-stable JSON export/import (mirroring
// workload.Trace), a validating Build that assembles a System from a Spec,
// and a named registry in which the five evaluated systems of the paper
// (§4, §7.1) are pinned as specs.
//
// PAPI's headline result is one point in a large design space (α threshold,
// PIM stack generation, device counts, link bandwidths); this layer makes
// every other point expressible without editing Go: a JSON file is a
// first-class design, the design-space-exploration figure
// (experiments.DSE) sweeps generated specs, and internal/cluster builds
// heterogeneous fleets from per-replica specs.
//
// The rest of the simulator builds its systems here: MustBuild for the specs
// the program writes itself, Spec.Build for every spec or α a caller supplies.
package design

import (
	"fmt"

	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/interconnect"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/units"
)

// Device counts of §7.1: every evaluated system has 90 HBM devices for
// fairness — 30 holding the FC weights and 60 for attention/KV.
const (
	WeightDevices = 30 // HBM stacks holding FC weight parameters
	AttnDevices   = 60 // HBM stacks holding KV caches / running attention
)

// DefaultAlpha is the calibrated memory-boundedness threshold for the
// default PAPI system (see sched.Calibrate; the offline procedure of §5.2.1
// lands here for all three evaluation models).
const DefaultAlpha = 28

// AttentionSpecializedPool builds a pool of attention-specialised PIM
// devices (AttAcc, HBM-PIM): no FC weight-reuse datapath, so FC work on them
// re-streams weights per token, and their score·V reduction trees reach only
// ~half utilisation on weight-stationary GEMV (§6.1 — the missing datapath
// is exactly what FC-PIM adds).
func AttentionSpecializedPool(stack hbm.Stack, count int) *pim.Device {
	d := pim.New(stack, count)
	d.FCWeightReuse = false
	d.FCComputeEff = 0.5
	return d
}

// System is one complete evaluated design.
type System struct {
	Name string

	// GPU is the high-performance processor's PU pool; nil for PIM-only
	// systems (AttAcc-only, PIM-only PAPI).
	GPU *gpu.Node

	// FCPIM is the PIM pool that can execute FC kernels (the 30
	// weight-holding stacks). Nil when FC can only run on the GPU
	// (A100+AttAcc, A100+HBM-PIM: their weight stacks are plain HBM).
	FCPIM *pim.Device

	// AttnPIM is the attention pool (60 stacks). Always present: every
	// evaluated design offloads attention to PIM.
	AttnPIM *pim.Device

	// AttnLink is the fabric to the disaggregated attention devices.
	AttnLink interconnect.Link
	// PULink is the fabric between PUs and the weight memory (NVLink); FC
	// activations cross it when FC runs on FC-PIM.
	PULink interconnect.Link

	// Policy decides FC placement each iteration.
	Policy sched.Policy

	// PlainWeightStacks sizes the plain-HBM weight pool of designs without
	// FC-PIM (their weight stacks store but cannot compute); 0 selects the
	// paper's WeightDevices. Ignored when FCPIM is present — the FC-PIM pool
	// is the weight pool.
	PlainWeightStacks int

	// PrefillOnGPU: the compute-bound prefill phase runs on the GPU in every
	// heterogeneous design; PIM-only systems must run it on their PIM units
	// (§7.4), which is the dominant cost of AttAcc-only end to end.
	PrefillOnGPU bool

	// HostPower is the host CPU's static draw, charged over wall-clock time.
	HostPower units.Watts
}

// Validate checks the system's structural invariants.
func (s *System) Validate() error {
	if s.GPU == nil && s.FCPIM == nil {
		return fmt.Errorf("design: %s has no FC execution engine", s.Name)
	}
	if s.AttnPIM == nil {
		return fmt.Errorf("design: %s has no attention engine", s.Name)
	}
	if s.GPU != nil {
		if err := s.GPU.Validate(); err != nil {
			return fmt.Errorf("design: %s: %w", s.Name, err)
		}
	}
	if s.FCPIM != nil {
		if err := s.FCPIM.Validate(); err != nil {
			return fmt.Errorf("design: %s: %w", s.Name, err)
		}
	}
	if err := s.AttnPIM.Validate(); err != nil {
		return fmt.Errorf("design: %s: %w", s.Name, err)
	}
	if err := s.AttnLink.Validate(); err != nil {
		return fmt.Errorf("design: %s: %w", s.Name, err)
	}
	if !s.AttnLink.SupportsDevices(s.AttnPIM.Count) {
		return fmt.Errorf("design: %s: %s cannot address %d attention devices",
			s.Name, s.AttnLink.Name, s.AttnPIM.Count)
	}
	if s.Policy == nil {
		return fmt.Errorf("design: %s has no scheduling policy", s.Name)
	}
	if !s.PrefillOnGPU && s.GPU != nil {
		return fmt.Errorf("design: %s has a GPU but runs prefill on PIM", s.Name)
	}
	return nil
}

// WeightCapacity returns the capacity of the weight-holding pool.
func (s *System) WeightCapacity() units.Bytes {
	if s.FCPIM != nil {
		return s.FCPIM.Capacity()
	}
	// Plain HBM weight stacks (the baselines' 30 × 16 GiB unless the design
	// declares its own pool size).
	n := s.PlainWeightStacks
	if n == 0 {
		n = WeightDevices
	}
	plain := hbm.PlainStack()
	return plain.Capacity().Scale(float64(n))
}

// KVCapacity returns the attention pool's KV-cache capacity.
func (s *System) KVCapacity() units.Bytes { return s.AttnPIM.Capacity() }

// FitsModel checks that the model's weights fit the weight pool.
func (s *System) FitsModel(cfg model.Config) error {
	if w, c := cfg.WeightBytes(), s.WeightCapacity(); w > c {
		return fmt.Errorf("design: %s: %s weights (%v) exceed weight capacity %v", s.Name, cfg.Name, w, c)
	}
	return nil
}

// HasGPU reports whether the design includes processing units.
func (s *System) HasGPU() bool { return s.GPU != nil }
