package design

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strings"

	"github.com/papi-sim/papi/internal/gpu"
	"github.com/papi-sim/papi/internal/hbm"
	"github.com/papi-sim/papi/internal/interconnect"
	"github.com/papi-sim/papi/internal/pim"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/units"
)

// GPUSpec describes the high-performance processor pool: count plus the
// roofline and power parameters of one device (gpu.Spec's fields in
// human-scale units: TFLOP/s, GB/s, GiB, µs).
type GPUSpec struct {
	Name            string  `json:"name"`
	Count           int     `json:"count"`
	PeakTFLOPS      float64 `json:"peak_tflops"`
	PeakMemGBps     float64 `json:"peak_mem_gbps"`
	MemGiB          float64 `json:"mem_gib"`
	ComputeEff      float64 `json:"compute_eff"`
	MemoryEff       float64 `json:"memory_eff"`
	ActivePowerW    float64 `json:"active_power_w"`
	IdlePowerW      float64 `json:"idle_power_w"`
	LaunchLatencyUS float64 `json:"launch_latency_us"`
}

// A100Node returns the paper's 6× NVIDIA A100 pool (§7.1) as a spec.
func A100Node() *GPUSpec {
	return &GPUSpec{
		Name:            "A100",
		Count:           6,
		PeakTFLOPS:      312,
		PeakMemGBps:     1935,
		MemGiB:          80,
		ComputeEff:      0.85,
		MemoryEff:       0.75,
		ActivePowerW:    500,
		IdlePowerW:      50,
		LaunchLatencyUS: 1.5,
	}
}

// build assembles the GPU pool with exactly the arithmetic of gpu.A100 /
// gpu.NewNode, so a spec carrying the preset values reproduces the preset
// bit-identically.
func (g *GPUSpec) build() *gpu.Node {
	return gpu.NewNode(gpu.Spec{
		Name:          g.Name,
		PeakCompute:   units.TFLOPS(g.PeakTFLOPS),
		PeakMemBW:     units.GBps(g.PeakMemGBps),
		MemCapacity:   units.GiBytes(g.MemGiB),
		ComputeEff:    g.ComputeEff,
		MemoryEff:     g.MemoryEff,
		ActivePower:   units.Watts(g.ActivePowerW),
		IdlePower:     units.Watts(g.IdlePowerW),
		LaunchLatency: units.Microseconds(g.LaunchLatencyUS),
	}, g.Count)
}

func (g *GPUSpec) validate() error {
	if g.Count <= 0 {
		return fmt.Errorf("gpu count %d must be positive", g.Count)
	}
	if g.PeakTFLOPS <= 0 || g.PeakMemGBps <= 0 {
		return fmt.Errorf("gpu %q has non-positive peak rates", g.Name)
	}
	if g.LaunchLatencyUS < 0 {
		return fmt.Errorf("gpu %q has negative launch latency", g.Name)
	}
	return nil
}

// PIMSpec describes one pool of PIM-enabled HBM stacks: the xPyB
// organisation (FPUs per Banks, §6.2), the die floorplan, the per-bank
// stream bandwidth, the pool size, and the FC datapath capabilities that
// distinguish FC-PIM from attention-specialised devices (§6.1).
type PIMSpec struct {
	// FPUs and Banks are the xPyB PIM organisation: FPUs FPUs shared across
	// Banks banks (1P1B is AttAcc, 1P2B is HBM-PIM / Attn-PIM, 4P1B FC-PIM).
	FPUs  int `json:"fpus"`
	Banks int `json:"banks"`
	// BanksPerDie fixes the die floorplan; 0 solves the Eq. (3) area
	// constraint for the largest buildable bank count.
	BanksPerDie int `json:"banks_per_die,omitempty"`
	// BankStreamGBps is the sustained per-bank read bandwidth in GB/s; 0
	// selects the calibrated default (see hbm.DefaultBankStreamBW).
	BankStreamGBps float64 `json:"bank_stream_gbps,omitempty"`
	// Count is the number of stacks in the pool.
	Count int `json:"count"`
	// FCWeightReuse marks the accumulation datapath that lets FC kernels
	// hold a weight element across tokens in flight (§6.1); without it FC
	// work re-streams weights once per token. Omitted (null) keeps the
	// full-datapath default of pim.New; attention-specialised pools set it
	// to false explicitly.
	FCWeightReuse *bool `json:"fc_weight_reuse,omitempty"`
	// FCComputeEff derates FPU throughput on FC kernels for devices whose
	// reduction trees are attention-specialised; 0 means 1.0 (no derate).
	FCComputeEff float64 `json:"fc_compute_eff,omitempty"`
}

// Preset pool specs of the evaluated designs (§7.1).

// boolSpec pins an optional bool field to an explicit value.
func boolSpec(v bool) *bool { return &v }

// FCPIMPool returns PAPI's FC-PIM pool: 4P1B area-solved stacks (96
// banks/die → 12 GB) with the full weight-reuse datapath.
func FCPIMPool(count int) *PIMSpec {
	return &PIMSpec{FPUs: 4, Banks: 1, Count: count, FCWeightReuse: boolSpec(true), FCComputeEff: 1}
}

// HBMPIMPool returns a Samsung HBM-PIM / PAPI Attn-PIM style 1P2B pool on
// the standard 128-banks/die floorplan, attention-specialised.
func HBMPIMPool(count int) *PIMSpec {
	return &PIMSpec{FPUs: 1, Banks: 2, BanksPerDie: 128, Count: count,
		FCWeightReuse: boolSpec(false), FCComputeEff: 0.5}
}

// AttAccPool returns an AttAcc-style 1P1B pool (the area solver lands on the
// standard 128 banks/die), attention-specialised.
func AttAccPool(count int) *PIMSpec {
	return &PIMSpec{FPUs: 1, Banks: 1, Count: count,
		FCWeightReuse: boolSpec(false), FCComputeEff: 0.5}
}

// stack assembles the pool's HBM stack.
func (p *PIMSpec) stack() hbm.Stack {
	s := hbm.NewStack(hbm.PIMConfig{FPUs: p.FPUs, Banks: p.Banks})
	if p.BanksPerDie > 0 {
		s.BanksPerDie = p.BanksPerDie
	}
	if p.BankStreamGBps > 0 {
		s.BankStreamBW = units.GBps(p.BankStreamGBps)
	}
	return s
}

// build assembles the device pool with exactly the arithmetic of pim.New
// (and of AttentionSpecializedPool when the FC datapath fields say so).
// Omitted optional fields keep pim.New's defaults.
func (p *PIMSpec) build() *pim.Device {
	d := pim.New(p.stack(), p.Count)
	if p.FCWeightReuse != nil {
		d.FCWeightReuse = *p.FCWeightReuse
	}
	if p.FCComputeEff > 0 {
		d.FCComputeEff = p.FCComputeEff
	}
	return d
}

func (p *PIMSpec) validate(role string) error {
	if p.Count <= 0 {
		return fmt.Errorf("%s pool count %d must be positive", role, p.Count)
	}
	if p.FPUs < 0 || p.Banks <= 0 {
		return fmt.Errorf("%s pool has invalid %dP%dB organisation", role, p.FPUs, p.Banks)
	}
	if p.BanksPerDie < 0 {
		return fmt.Errorf("%s pool has negative banks per die", role)
	}
	if p.BankStreamGBps < 0 {
		return fmt.Errorf("%s pool has negative bank stream bandwidth", role)
	}
	if p.FCComputeEff < 0 || p.FCComputeEff > 1 {
		return fmt.Errorf("%s pool FC compute efficiency %g outside [0, 1]", role, p.FCComputeEff)
	}
	return nil
}

// LinkSpec describes one interconnect class (bandwidth, latency, per-byte
// energy, fan-out limit — §6.3) in human-scale units.
type LinkSpec struct {
	Name       string  `json:"name"`
	GBps       float64 `json:"gbps"`
	LatencyUS  float64 `json:"latency_us"`
	PJPerByte  float64 `json:"pj_per_byte"`
	MaxDevices int     `json:"max_devices"`
}

// NVLink3Link returns the GPU↔FC-PIM fabric preset as a spec.
func NVLink3Link() *LinkSpec {
	return &LinkSpec{Name: "NVLink3", GBps: 600, LatencyUS: 1.0, PJPerByte: 8, MaxDevices: 18}
}

// CXL2Link returns the CXL 2.0 attention-fabric preset as a spec.
func CXL2Link() *LinkSpec {
	return &LinkSpec{Name: "CXL2", GBps: 32, LatencyUS: 2.0, PJPerByte: 10, MaxDevices: 4096}
}

// build assembles the link with exactly the arithmetic of the interconnect
// presets.
func (l *LinkSpec) build() interconnect.Link {
	return interconnect.Link{
		Name:       l.Name,
		BW:         units.GBps(l.GBps),
		Latency:    units.Microseconds(l.LatencyUS),
		PJB:        l.PJPerByte,
		MaxDevices: l.MaxDevices,
	}
}

func (l *LinkSpec) validate(role string) error {
	if l.GBps <= 0 {
		return fmt.Errorf("%s link %q has non-positive bandwidth", role, l.Name)
	}
	if l.LatencyUS < 0 {
		return fmt.Errorf("%s link %q has negative latency", role, l.Name)
	}
	if l.MaxDevices <= 0 {
		return fmt.Errorf("%s link %q has no device budget", role, l.Name)
	}
	return nil
}

// Policy kinds a spec may name.
const (
	// PolicyDynamic is PAPI's parallelism-aware placement (§5.2): FC goes
	// to the PUs when the RLP×TLP arithmetic-intensity estimate reaches α.
	PolicyDynamic = "dynamic"
	// PolicyStaticPU always runs FC on the processing units (the
	// A100+AttAcc / A100+HBM-PIM baselines).
	PolicyStaticPU = "static-pu"
	// PolicyStaticPIM always runs FC on PIM (AttAcc-only, PIM-only PAPI).
	PolicyStaticPIM = "static-pim"
)

// PolicySpec names the FC placement policy.
type PolicySpec struct {
	Kind string `json:"kind"`
	// Alpha is the dynamic policy's memory-boundedness threshold: 0 selects
	// the calibrated DefaultAlpha, anything else must be finite and
	// positive. Ignored by the static policies.
	Alpha float64 `json:"alpha,omitempty"`
}

// build assembles the sched.Policy.
func (p PolicySpec) build() (sched.Policy, error) {
	switch p.Kind {
	case PolicyDynamic:
		alpha := p.Alpha
		if alpha == 0 {
			alpha = DefaultAlpha
		}
		// NaN fails the comparison too.
		if !(alpha > 0) || math.IsInf(alpha, 1) {
			return nil, fmt.Errorf("dynamic policy α %v must be finite and positive (0 selects the default %d)",
				p.Alpha, DefaultAlpha)
		}
		return sched.Dynamic{Alpha: alpha}, nil
	case PolicyStaticPU:
		return sched.AlwaysPU(), nil
	case PolicyStaticPIM:
		return sched.AlwaysPIM(), nil
	}
	return nil, fmt.Errorf("unknown policy kind %q (have %q, %q, %q)",
		p.Kind, PolicyDynamic, PolicyStaticPU, PolicyStaticPIM)
}

// Spec is one complete hardware design, declaratively: everything a System
// is assembled from, serializable as byte-stable JSON. The zero value of an
// omitted optional field selects the same default the legacy constructors
// used, so a minimal spec stays close to the paper's configuration.
type Spec struct {
	Name        string `json:"name"`
	Description string `json:"description,omitempty"`

	// GPU is the processing-unit pool; omitted for PIM-only designs.
	GPU *GPUSpec `json:"gpu,omitempty"`
	// FCPIM is the FC-capable weight pool; omitted when the weight stacks
	// are plain HBM and FC can only run on the GPU.
	FCPIM *PIMSpec `json:"fc_pim,omitempty"`
	// AttnPIM is the attention pool. Required: every design offloads
	// attention to PIM.
	AttnPIM *PIMSpec `json:"attn_pim"`
	// WeightStacks sizes the plain-HBM weight pool of FC-PIM-less designs
	// (store-only stacks; FC runs on the GPU); 0 selects the paper's 30.
	// Meaningless — and rejected — alongside fc_pim, whose pool holds the
	// weights.
	WeightStacks int `json:"weight_stacks,omitempty"`

	// AttnLink is the fabric to the disaggregated attention devices;
	// omitted, Build picks the cheapest fabric that can address the pool
	// (PCIe up to 32 devices, CXL beyond — §6.3) and reports an error when
	// none can.
	AttnLink *LinkSpec `json:"attn_link,omitempty"`
	// PULink is the PU↔weight-memory fabric; omitted selects NVLink3.
	PULink *LinkSpec `json:"pu_link,omitempty"`

	// Policy decides FC placement each iteration.
	Policy PolicySpec `json:"policy"`
	// PrefillOnGPU runs the compute-bound prefill phase on the GPU; required
	// exactly when a GPU is present.
	PrefillOnGPU bool `json:"prefill_on_gpu,omitempty"`
	// HostPowerW is the host CPU's static draw in watts.
	HostPowerW float64 `json:"host_power_w,omitempty"`
}

// Validate checks the spec's declarative invariants — the ones visible
// without assembling hardware. Build additionally validates the assembled
// System (die area, power budgets, fabric fan-out).
func (s Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("design: spec has no name")
	}
	if s.AttnPIM == nil {
		return fmt.Errorf("design: %s has no attention pool", s.Name)
	}
	if err := s.AttnPIM.validate("attention"); err != nil {
		return fmt.Errorf("design: %s: %w", s.Name, err)
	}
	if s.GPU != nil {
		if err := s.GPU.validate(); err != nil {
			return fmt.Errorf("design: %s: %w", s.Name, err)
		}
	}
	if s.FCPIM != nil {
		if err := s.FCPIM.validate("FC-PIM"); err != nil {
			return fmt.Errorf("design: %s: %w", s.Name, err)
		}
	}
	if s.GPU == nil && s.FCPIM == nil {
		return fmt.Errorf("design: %s has no FC execution engine", s.Name)
	}
	if s.WeightStacks < 0 {
		return fmt.Errorf("design: %s has negative weight stacks", s.Name)
	}
	if s.WeightStacks > 0 && s.FCPIM != nil {
		return fmt.Errorf("design: %s sets weight_stacks alongside fc_pim, whose pool already holds the weights", s.Name)
	}
	if s.AttnLink != nil {
		if err := s.AttnLink.validate("attention"); err != nil {
			return fmt.Errorf("design: %s: %w", s.Name, err)
		}
	}
	if s.PULink != nil {
		if err := s.PULink.validate("PU"); err != nil {
			return fmt.Errorf("design: %s: %w", s.Name, err)
		}
	}
	if _, err := s.Policy.build(); err != nil {
		return fmt.Errorf("design: %s: %w", s.Name, err)
	}
	if s.PrefillOnGPU && s.GPU == nil {
		return fmt.Errorf("design: %s prefills on a GPU it does not have", s.Name)
	}
	if !s.PrefillOnGPU && s.GPU != nil {
		return fmt.Errorf("design: %s has a GPU but runs prefill on PIM", s.Name)
	}
	if s.HostPowerW < 0 {
		return fmt.Errorf("design: %s has negative host power", s.Name)
	}
	return nil
}

// Build assembles and validates the System the spec describes. The attention
// fabric's feasibility is a real constraint here: when the spec leaves the
// link to the fabric chooser and no fabric can address the pool, Build
// reports it (the legacy constructors discarded this error).
func (s Spec) Build() (*System, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	policy, err := s.Policy.build()
	if err != nil {
		return nil, fmt.Errorf("design: %s: %w", s.Name, err)
	}
	sys := &System{
		Name:              s.Name,
		AttnPIM:           s.AttnPIM.build(),
		Policy:            policy,
		PlainWeightStacks: s.WeightStacks,
		PrefillOnGPU:      s.PrefillOnGPU,
		HostPower:         units.Watts(s.HostPowerW),
	}
	if s.GPU != nil {
		sys.GPU = s.GPU.build()
	}
	if s.FCPIM != nil {
		sys.FCPIM = s.FCPIM.build()
	}
	if s.AttnLink != nil {
		sys.AttnLink = s.AttnLink.build()
	} else {
		link, err := interconnect.AttnFabric(s.AttnPIM.Count)
		if err != nil {
			return nil, fmt.Errorf("design: %s: %w", s.Name, err)
		}
		sys.AttnLink = link
	}
	if s.PULink != nil {
		sys.PULink = s.PULink.build()
	} else {
		sys.PULink = interconnect.NVLink3()
	}
	if err := sys.Validate(); err != nil {
		return nil, err
	}
	return sys, nil
}

// Export serialises the spec as indented JSON with a trailing newline.
// Serialisation is deterministic: struct fields marshal in declaration order
// and float64s use the shortest round-tripping form, so the same spec always
// yields the same bytes (export → import → export is byte-identical).
func (s Spec) Export() ([]byte, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// ImportSpec parses and validates an exported design spec.
func ImportSpec(data []byte) (Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return Spec{}, fmt.Errorf("design: invalid spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// Resolve turns a CLI -design argument into a spec: a registry name, or —
// when the argument names a .json file or contains a path separator — a spec
// file to import.
func Resolve(arg string) (Spec, error) {
	if strings.HasSuffix(arg, ".json") || strings.ContainsRune(arg, os.PathSeparator) {
		data, err := os.ReadFile(arg)
		if err != nil {
			return Spec{}, fmt.Errorf("design: reading spec file: %w", err)
		}
		return ImportSpec(data)
	}
	return ByName(arg)
}
