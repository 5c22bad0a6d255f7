// Package pim models PIM-enabled HBM devices executing LLM kernels: the
// per-bank FPU datapath, the data-reuse-aware energy breakdown of §6.1
// (DRAM Access / Transfer / Computation, Fig. 7), the 116 W power governor,
// and pools of devices acting as one accelerator.
//
// Two execution paths exist:
//
//   - the analytic path (Execute, or a folded Pricer), a closed-form
//     roofline over the stack's stream supply and FPU demand rates, used by
//     the serving engine;
//   - the detailed path (ExecuteDetailed), which drives the command-level
//     DRAM simulator (internal/dram) for the memory side.
//
// The analytic constants are calibrated against the detailed path; a test
// asserts their agreement.
package pim

import (
	"fmt"
	"math"

	"github.com/papi-sim/papi/internal/dram"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/units"
)

// EnergyModel holds the per-byte energy constants of the PIM datapath.
// The split reproduces the paper's Fig. 7(a): with no data reuse, DRAM access
// is 96.7 % of the total (43.9 / 45.4); with reuse 64 it falls to ≈31 %
// (paper: 33.1 %, Fig. 7(b)).
type EnergyModel struct {
	// DRAMAccessPJB is charged per byte read from the DRAM arrays
	// (row activation + column access, amortised by data reuse).
	DRAMAccessPJB float64
	// TransferPJB is charged per byte delivered to an FPU (buffer die, TSV,
	// global and bank-group controllers).
	TransferPJB float64
	// ComputePJB is charged per byte consumed by FPU arithmetic.
	ComputePJB float64
	// StaticW is the per-stack standby power (refresh, PLLs, IO idle).
	StaticW units.Watts
}

// DefaultEnergyModel returns the calibrated constants (see internal/dram for
// the command-level measurement backing DRAMAccessPJB).
func DefaultEnergyModel() EnergyModel {
	return EnergyModel{
		DRAMAccessPJB: 43.9,
		TransferPJB:   0.9,
		ComputePJB:    0.6,
		StaticW:       4,
	}
}

// PerComputeByte returns the energy per FPU-consumed byte at reuse level r:
// e(r) = DRAM/r + transfer + compute.
func (m EnergyModel) PerComputeByte(r float64) units.PicojoulesPerByte {
	if r < 1 {
		r = 1
	}
	return units.PicojoulesPerByte(m.DRAMAccessPJB/r + m.TransferPJB + m.ComputePJB)
}

// Breakdown splits kernel energy by component (Fig. 7(a)/(b)).
type Breakdown struct {
	DRAMAccess units.Joules
	Transfer   units.Joules
	Compute    units.Joules
	Static     units.Joules
}

// Total sums all components.
func (b Breakdown) Total() units.Joules {
	return b.DRAMAccess + b.Transfer + b.Compute + b.Static
}

// DRAMShare returns DRAM access as a fraction of dynamic (non-static) energy,
// the quantity plotted in Fig. 7(a)/(b).
func (b Breakdown) DRAMShare() float64 {
	dyn := b.DRAMAccess + b.Transfer + b.Compute
	if dyn <= 0 {
		return 0
	}
	return float64(b.DRAMAccess) / float64(dyn)
}

// Class distinguishes the two LLM kernel families, which exercise different
// PIM datapaths (§6.1–6.2).
type Class int

// Kernel classes.
const (
	// ClassFC is weight-streaming GEMV/GEMM work (QKV, projection, FFN,
	// prefill, draft). Exploiting *weight* data reuse across tokens requires
	// the accumulation datapath FC-PIM adds (§6.1); attention-specialised
	// designs (AttAcc 1P1B, HBM-PIM 1P2B) re-stream weights per token.
	ClassFC Class = iota
	// ClassAttention is KV-streaming attention work; its (TLP-level) reuse is
	// native to every attention-capable PIM design.
	ClassAttention
)

// Kernel describes one PIM workload in datapath terms.
//
// UniqueBytes is the distinct data streamed from the DRAM arrays (the weight
// matrix for FC, the KV cache for attention). Flops is total arithmetic.
// In FP16 GEMV one FPU lane consumes one operand byte per FLOP, so the FPUs
// consume Flops bytes in total and the data-reuse level is Flops/UniqueBytes
// — equal to RLP×TLP for FC (Eq. 2) and TLP for attention.
type Kernel struct {
	Name        string
	Class       Class
	Flops       units.FLOPs
	UniqueBytes units.Bytes
}

// Reuse returns the data-reuse level Flops/UniqueBytes.
func (k Kernel) Reuse() float64 {
	if k.UniqueBytes <= 0 {
		return 1
	}
	r := float64(k.Flops) / float64(k.UniqueBytes)
	if r < 1 {
		return 1
	}
	return r
}

// Result reports one kernel execution.
type Result struct {
	Time      units.Seconds
	Energy    Breakdown
	Power     units.Watts // average dynamic power during execution
	Throttled bool        // whether the power governor stretched execution
	Devices   int         // devices that participated
}

// Device is a pool of identical PIM-enabled HBM stacks acting as one
// accelerator (e.g. "the 30 FC-PIM devices" or "the 60 Attn-PIM devices").
type Device struct {
	Stack  hbm.Stack
	Count  int
	Energy EnergyModel

	// Governor enforces the per-stack power budget by stretching execution
	// (frequency throttling). The paper's designs are chosen to fit the
	// budget; the governor exists to model infeasible points honestly
	// (e.g. AttAcc's 1P1B slightly exceeds it with no data reuse).
	Governor bool
	BudgetW  float64

	// FCWeightReuse reports whether the device's datapath can hold a weight
	// element and accumulate across multiple tokens (the FC-PIM design of
	// §6.1). Without it, FC kernels re-stream their weights once per token
	// in flight (reuse level 1), which is what makes FC on AttAcc-class
	// devices collapse at high parallelism (Fig. 4, Fig. 8's AttAcc-only).
	FCWeightReuse bool

	// FCComputeEff derates FPU throughput for FC kernels on devices whose
	// reduction datapath is attention-specialised (score·V adder trees reach
	// only ~half utilisation on weight-stationary GEMV). 1.0 for FC-PIM.
	FCComputeEff float64

	// KernelOverhead is the fixed cost of one kernel invocation: command
	// broadcast, result gather and reduction across banks.
	KernelOverhead units.Seconds
}

// New returns a device pool with the calibrated defaults. Weight reuse is
// enabled; callers modelling attention-specialised devices clear it.
func New(stack hbm.Stack, count int) *Device {
	return &Device{
		Stack:          stack,
		Count:          count,
		Energy:         DefaultEnergyModel(),
		Governor:       true,
		BudgetW:        hbm.PowerBudgetW,
		FCWeightReuse:  true,
		FCComputeEff:   1.0,
		KernelOverhead: units.Microseconds(2),
	}
}

// Validate checks the pool invariants.
func (d *Device) Validate() error {
	if d.Count <= 0 {
		return fmt.Errorf("pim: device count %d must be positive", d.Count)
	}
	if err := d.Stack.Validate(); err != nil {
		return err
	}
	if d.Stack.FPUs() == 0 {
		return fmt.Errorf("pim: %s stack has no FPUs, cannot execute kernels", d.Stack.Config)
	}
	return nil
}

// ComputeRate returns the pool's aggregate FPU throughput.
func (d *Device) ComputeRate() units.FLOPSRate {
	return units.FLOPSRate(float64(d.Count) * float64(d.Stack.ComputeRate()))
}

// StreamBW returns the pool's aggregate DRAM supply bandwidth.
func (d *Device) StreamBW() units.BytesPerSecond {
	return units.BytesPerSecond(float64(d.Count) * float64(d.Stack.StreamBW()))
}

// Capacity returns the pool's total memory capacity.
func (d *Device) Capacity() units.Bytes {
	return units.Bytes(float64(d.Count) * float64(d.Stack.Capacity()))
}

// Execute runs the kernel on up to active devices (0 or >Count means all)
// using the analytic model and returns timing, energy and power: it folds a
// Pricer for the kernel's class and prices the kernel on it.
func (d *Device) Execute(k Kernel, active int) Result {
	var p Pricer
	p.Fold(d, active, k.Class)
	f := float64(k.Flops)
	u := p.traffic(f, float64(k.UniqueBytes))
	t, power, throttled := p.roofline(f, u)
	return Result{
		Time:      units.Seconds(t),
		Energy:    p.breakdown(f, u, t),
		Power:     units.Watts(power),
		Throttled: throttled,
		Devices:   p.devices,
	}
}

// Pricer is the analytic roofline with a pool, an active-device count and a
// kernel class folded in: the pool's compute rate (derated for FC kernels on
// attention-specialised datapaths) and stream bandwidth, whether FC weights
// re-stream per token, the governor's budget and the static draw for that
// many devices, and the per-byte energy terms. Execute folds one per kernel.
// A serving decode window fixes the attention device count (its RLP sets the
// devices in use), so it folds one pricer per window and pays only the
// roofline itself per iteration.
type Pricer struct {
	devices     int     // active devices
	computeRate float64 // FLOP/s over the active devices; 1 B consumed per FLOP
	supplyBW    float64 // B/s from DRAM over the active devices
	restream    bool    // FC weights re-stream once per consuming token
	dramPJB     float64
	transferPJB float64
	computePJB  float64
	flowPJB     float64 // transferPJB + computePJB
	governor    bool
	budget      float64 // W over the active devices
	overhead    float64 // s per kernel invocation
	staticW     float64 // standby W over the active devices
}

// Fold sets p to price class kernels on up to active devices of d (0 or
// >Count means all). It writes p in place, field by field: the serving
// engine folds one per decode window, and returning the struct would copy
// it through memory.
//
//papivet:noalloc
func (p *Pricer) Fold(d *Device, active int, class Class) {
	if active <= 0 || active > d.Count {
		active = d.Count
	}
	n := float64(active)
	p.devices = active
	p.computeRate = n * float64(d.Stack.ComputeRate())
	if class == ClassFC {
		eff := d.FCComputeEff
		if eff <= 0 || eff > 1 {
			eff = 1
		}
		p.computeRate *= eff
	}
	p.restream = class == ClassFC && !d.FCWeightReuse
	p.supplyBW = n * float64(d.Stack.StreamBW())
	p.dramPJB = d.Energy.DRAMAccessPJB
	p.transferPJB = d.Energy.TransferPJB
	p.computePJB = d.Energy.ComputePJB
	p.flowPJB = d.Energy.TransferPJB + d.Energy.ComputePJB
	p.governor = d.Governor
	p.budget = d.BudgetW * n
	p.overhead = float64(d.KernelOverhead)
	p.staticW = float64(d.Energy.StaticW) * n
}

// Price returns one kernel's time, total energy and throttle flag.
//
//papivet:noalloc
func (p *Pricer) Price(flops units.FLOPs, unique units.Bytes) (units.Seconds, units.Joules, bool) {
	f := float64(flops)
	u := p.traffic(f, float64(unique))
	t, _, throttled := p.roofline(f, u)
	return units.Seconds(t), p.breakdown(f, u, t).Total(), throttled
}

// traffic returns the DRAM bytes a kernel of f FLOPs over u unique bytes
// actually streams: FC weights re-stream once per consuming token on a
// device without weight reuse.
func (p *Pricer) traffic(f, u float64) float64 {
	if p.restream && f > u {
		return f
	}
	return u
}

// roofline returns the time of a kernel of f FLOPs streaming u bytes from
// DRAM, the per-kernel overhead included, its average dynamic power and
// whether the governor stretched it. The FPUs consume f bytes; DRAM must
// supply the u post-reuse bytes.
func (p *Pricer) roofline(f, u float64) (t, power float64, throttled bool) {
	t = max(f/p.computeRate, u/p.supplyBW)
	power = (u*p.dramPJB + f*p.flowPJB) * 1e-12 / t
	if p.governor && power > p.budget {
		// Stretch execution until average power meets the budget.
		t *= power / p.budget
		power = p.budget
		throttled = true
	}
	return t + p.overhead, power, throttled
}

// breakdown splits the energy of a kernel of f FLOPs that streamed u bytes
// from DRAM and ran t seconds.
func (p *Pricer) breakdown(f, u, t float64) Breakdown {
	return Breakdown{
		DRAMAccess: units.Joules(u * p.dramPJB * 1e-12),
		Transfer:   units.Joules(f * p.transferPJB * 1e-12),
		Compute:    units.Joules(f * p.computePJB * 1e-12),
		Static:     units.Joules(p.staticW * t),
	}
}

// DemandPower returns the pool-per-stack dynamic power if the FPUs ran at
// full rate with data-reuse level r — the quantity plotted in Fig. 7(c).
// It deliberately ignores the DRAM supply cap and the governor: the figure
// asks "what would this configuration draw", not "what does it sustain".
func DemandPower(stack hbm.Stack, m EnergyModel, r float64) units.Watts {
	if r < 1 {
		r = 1
	}
	consumption := float64(stack.FPUs()) * float64(stack.FPU.StreamDemand()) // B/s
	return units.Watts(consumption * float64(m.PerComputeByte(r)) * 1e-12)
}

// FitsBudget reports whether the configuration's demand power at reuse r
// stays within the HBM power budget.
func FitsBudget(stack hbm.Stack, m EnergyModel, r float64) bool {
	return float64(DemandPower(stack, m, r)) <= hbm.PowerBudgetW
}

// MinReuseWithinBudget returns the smallest power-of-two reuse level at which
// the configuration meets the budget (the paper sweeps r ∈ {1,4,16,64}).
func MinReuseWithinBudget(stack hbm.Stack, m EnergyModel) float64 {
	for r := 1.0; r <= 1024; r *= 2 {
		if FitsBudget(stack, m, r) {
			return r
		}
	}
	return math.Inf(1)
}

// ExecuteDetailed runs the kernel's DRAM side through the command-level
// simulator and combines it with the analytic compute time. One stack's
// share of the stream is simulated and scaled; this path is used for
// calibration and the Fig. 7 microbenchmarks.
func (d *Device) ExecuteDetailed(k Kernel, active int) Result {
	var p Pricer
	p.Fold(d, active, k.Class)
	f := float64(k.Flops)
	unique := p.traffic(f, float64(k.UniqueBytes))
	// Bytes one channel must stream.
	g := dram.PIMChannelGeometry()
	channelsPerStack := float64(d.Stack.Banks()) / float64(g.Banks())
	perChannel := unique / (float64(p.devices) * channelsPerStack)
	rows := math.Ceil(perChannel / (float64(g.RowBytes) * float64(g.Banks())))
	res, err := dram.RunStream(g, dram.HBM3Timing(), dram.HBM3Energy(), dram.StreamSpec{
		Rows:      int(min(max(rows, 1), float64(g.Rows))),
		Broadcast: true,
	})
	if err != nil {
		// An all-bank stream of one bank's rows or fewer is always valid.
		panic(err)
	}
	// Scale the measured channel time to the requested bytes (the stream ran
	// whole rows, at most a bank's; the kernel may need a fraction of the
	// last row, or more rows than a bank holds).
	dramTime := float64(res.Elapsed) * perChannel / float64(res.Bytes)
	t := math.Max(f/p.computeRate, dramTime) + p.overhead

	// The measured per-byte DRAM energy replaces the analytic constant.
	dramPJ := unique * float64(res.EnergyPerByte)
	e := p.breakdown(f, unique, t)
	e.DRAMAccess = units.Joules(dramPJ * 1e-12)
	return Result{
		Time:    units.Seconds(t),
		Power:   units.Watts((dramPJ + f*p.flowPJB) * 1e-12 / t),
		Devices: p.devices,
		Energy:  e,
	}
}
