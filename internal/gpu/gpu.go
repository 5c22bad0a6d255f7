// Package gpu models a computation-centric accelerator — the 6× NVIDIA A100
// node of the paper's baselines — as a roofline executor with calibrated
// efficiencies and a two-state power model.
//
// The paper itself evaluates the GPU analytically (Fig. 2's roofline uses the
// published 312 TFLOPS FP16 / 1935 GB/s numbers); this package does the same,
// adding achievable-fraction efficiencies so kernel times reflect realistic
// GEMM/GEMV utilisation rather than theoretical peaks.
package gpu

import (
	"fmt"

	"github.com/papi-sim/papi/internal/units"
)

// Spec describes one GPU.
type Spec struct {
	Name          string
	PeakCompute   units.FLOPSRate      // dense FP16 tensor-core peak
	PeakMemBW     units.BytesPerSecond // HBM bandwidth
	MemCapacity   units.Bytes          // device memory
	ComputeEff    float64              // achievable fraction of peak compute
	MemoryEff     float64              // achievable fraction of peak bandwidth
	ActivePower   units.Watts          // board power while executing
	IdlePower     units.Watts          // board power while idle
	LaunchLatency units.Seconds        // per-kernel launch overhead
}

// A100 returns the NVIDIA A100 used throughout the evaluation (§7.1):
// 312 TFLOPS FP16, 1935 GB/s, 80 GB. Efficiencies are calibrated: large
// GEMMs reach ~85 % of tensor-core peak, decode GEMVs ~75 % of DRAM peak.
func A100() Spec {
	return Spec{
		Name:          "A100",
		PeakCompute:   units.TFLOPS(312),
		PeakMemBW:     units.GBps(1935),
		MemCapacity:   units.GiBytes(80),
		ComputeEff:    0.85,
		MemoryEff:     0.75,
		ActivePower:   500,
		IdlePower:     50,
		LaunchLatency: units.Microseconds(1.5),
	}
}

// Node is a pool of identical GPUs acting as one tensor-parallel executor
// (the paper's 6-GPU system).
type Node struct {
	Spec  Spec
	Count int
}

// NewNode builds a GPU pool.
func NewNode(spec Spec, count int) *Node { return &Node{Spec: spec, Count: count} }

// DefaultNode returns the paper's 6× A100 system.
func DefaultNode() *Node { return NewNode(A100(), 6) }

// Validate checks pool invariants.
func (n *Node) Validate() error {
	if n.Count <= 0 {
		return fmt.Errorf("gpu: count %d must be positive", n.Count)
	}
	if n.Spec.PeakCompute <= 0 || n.Spec.PeakMemBW <= 0 {
		return fmt.Errorf("gpu: %s has non-positive peak rates", n.Spec.Name)
	}
	if n.Spec.ComputeEff <= 0 || n.Spec.ComputeEff > 1 || n.Spec.MemoryEff <= 0 || n.Spec.MemoryEff > 1 {
		return fmt.Errorf("gpu: %s efficiencies out of (0,1]", n.Spec.Name)
	}
	return nil
}

// ComputeRate returns the pool's achievable compute throughput.
func (n *Node) ComputeRate() units.FLOPSRate {
	return units.FLOPSRate(float64(n.Count) * float64(n.Spec.PeakCompute) * n.Spec.ComputeEff)
}

// MemBW returns the pool's achievable memory bandwidth.
func (n *Node) MemBW() units.BytesPerSecond {
	return units.BytesPerSecond(float64(n.Count) * float64(n.Spec.PeakMemBW) * n.Spec.MemoryEff)
}

// MemCapacity returns the pool's total device memory.
func (n *Node) MemCapacity() units.Bytes {
	return units.Bytes(float64(n.Count) * float64(n.Spec.MemCapacity))
}

// RidgeAI returns the roofline ridge point in FLOP/byte: kernels above it are
// compute-bound on this node. For the A100 this is 312e12/1935e9 ≈ 161,
// which is where Fig. 2 places the FC kernel's transition.
func (n *Node) RidgeAI() float64 {
	return float64(n.Spec.PeakCompute) / float64(n.Spec.PeakMemBW)
}

// AttainableRate returns one device's roofline-attainable compute rate at
// arithmetic intensity ai on the same published peaks as RidgeAI: ai × peak
// bandwidth below the ridge, peak compute at and above it (Fig. 2's envelope).
func (n *Node) AttainableRate(ai float64) units.FLOPSRate {
	mem := ai * float64(n.Spec.PeakMemBW)
	if mem < float64(n.Spec.PeakCompute) {
		return units.FLOPSRate(mem)
	}
	return n.Spec.PeakCompute
}

// Result reports one kernel execution on the node.
type Result struct {
	Time         units.Seconds
	Energy       units.Joules
	ComputeBound bool
}

// Execute runs a kernel of the given arithmetic (flops) and memory traffic
// (bytes) on the whole pool and returns roofline time plus launch overhead.
func (n *Node) Execute(flops units.FLOPs, bytes units.Bytes) Result {
	ct := float64(flops) / float64(n.ComputeRate())
	mt := float64(bytes) / float64(n.MemBW())
	t := max(ct, mt) + float64(n.Spec.LaunchLatency)
	return Result{
		Time:         units.Seconds(t),
		Energy:       units.Joules(float64(n.Spec.ActivePower) * float64(n.Count) * t),
		ComputeBound: ct >= mt,
	}
}
