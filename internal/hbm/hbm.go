// Package hbm models the organisation, area and power constraints of
// PIM-enabled HBM3 stacks (paper §6.1–6.2).
//
// The package owns the three published area constants (bank 0.83 mm², FPU
// 0.1025 mm², die cap 121 mm²), the bank-count solver of Eq. (3)/(4), the
// 116 W per-cube power budget, and the stack configurations used by every
// evaluated design: plain HBM3, AttAcc-style 1P1B, HBM-PIM/Attn-PIM-style
// 1P2B, and the FC-PIM 4P1B device.
package hbm

import (
	"fmt"

	"github.com/papi-sim/papi/internal/units"
)

// Published constants (paper §6.1, CACTI-3DD at 22 nm and [61]).
const (
	BankAreaMM2   = 0.83   // one HBM bank, memory array + peripherals
	FPUAreaMM2    = 0.1025 // one PIM floating-point unit
	DieAreaCapMM2 = 121.0  // maximum area of a single HBM die

	// PowerBudgetW is the power budget of an 8-high 16 GB HBM3 cube following
	// the JEDEC IDD7 methodology (paper footnote 2).
	PowerBudgetW = 116.0

	// DiesPerStack is the stack height (8-high, §6.1).
	DiesPerStack = 8

	// BankCapacityBytes is one bank's capacity: 128 banks/die × 8 dies ×
	// 16 MiB = 16 GiB, the standard stack capacity of §7.1.
	BankCapacityBytes = 16 * units.MiB

	// BanksPerGroup is the bank-group width used when rounding the solver
	// result (banks are physically grouped in fours).
	BanksPerGroup = 4
)

// FPU describes the per-bank processing unit: a 2-lane FP16 MAC at 666 MHz.
// Each lane performs one multiply-accumulate per cycle on an FP16 operand
// pair, so the unit sustains 2.664 GFLOP/s while consuming 2.664 GB/s of
// weight stream (1 FLOP per weight byte in FP16 GEMV). The rate is chosen so
// one FPU exactly matches one bank's sustained streaming bandwidth — the
// paper's 1P1B design point (§6.2).
type FPU struct {
	Lanes             int
	ClockHz           float64
	FlopsPerLaneCycle float64
}

// DefaultFPU returns the FPU used by every PIM configuration in the paper.
func DefaultFPU() FPU {
	return FPU{Lanes: 2, ClockHz: 666e6, FlopsPerLaneCycle: 2}
}

// Rate returns the unit's compute throughput.
func (f FPU) Rate() units.FLOPSRate {
	return units.FLOPSRate(float64(f.Lanes) * f.ClockHz * f.FlopsPerLaneCycle)
}

// StreamDemand returns the weight-stream bandwidth the unit consumes when
// fully busy (FP16: two bytes per MAC, i.e. one byte per FLOP).
func (f FPU) StreamDemand() units.BytesPerSecond {
	return units.BytesPerSecond(float64(f.Rate()))
}

// PIMConfig is an "xPyB" PIM organisation: x FPUs shared across y banks.
type PIMConfig struct {
	FPUs  int // x: FPUs per group of banks
	Banks int // y: banks per group
}

// Common configurations from the paper.
var (
	// Plain is a non-PIM HBM3 die (no FPUs).
	Plain = PIMConfig{FPUs: 0, Banks: 1}
	// OnePerBank is AttAcc's 1P1B configuration.
	OnePerBank = PIMConfig{FPUs: 1, Banks: 1}
	// OnePerTwoBanks is Samsung HBM-PIM's and PAPI Attn-PIM's 1P2B.
	OnePerTwoBanks = PIMConfig{FPUs: 1, Banks: 2}
	// TwoPerBank is the 2P1B point explored in Fig. 7(c).
	TwoPerBank = PIMConfig{FPUs: 2, Banks: 1}
	// FourPerBank is PAPI FC-PIM's 4P1B.
	FourPerBank = PIMConfig{FPUs: 4, Banks: 1}
)

// String renders the configuration in the paper's xPyB notation.
func (c PIMConfig) String() string {
	if c.FPUs == 0 {
		return "plain"
	}
	return fmt.Sprintf("%dP%dB", c.FPUs, c.Banks)
}

// FPUsPerBank returns the average FPU count per bank.
func (c PIMConfig) FPUsPerBank() float64 {
	if c.Banks == 0 {
		return 0
	}
	return float64(c.FPUs) / float64(c.Banks)
}

// AreaPerBankMM2 returns the die area consumed per bank, including that
// bank's share of the FPUs (the left side of Eq. 3 divided by m).
func (c PIMConfig) AreaPerBankMM2() float64 {
	return BankAreaMM2 + c.FPUsPerBank()*FPUAreaMM2
}

// MaxBanksPerDie solves Eq. (3): the largest bank count whose total area
// (banks plus their FPU share) fits in the die cap.
func (c PIMConfig) MaxBanksPerDie() int {
	per := c.AreaPerBankMM2()
	if per <= 0 {
		return 0
	}
	return int(DieAreaCapMM2 / per)
}

// BanksPerDie rounds MaxBanksPerDie down to a bank-group multiple — the
// physically buildable count. For 4P1B this yields the paper's 96 banks.
func (c PIMConfig) BanksPerDie() int {
	m := c.MaxBanksPerDie()
	return m - m%BanksPerGroup
}

// Stack is one HBM3 cube with a uniform PIM configuration on every die.
type Stack struct {
	Config      PIMConfig
	FPU         FPU
	BanksPerDie int
	Dies        int

	// BankStreamBW is the sustained per-bank read bandwidth. The default
	// (2.664 GB/s) is calibrated against the command-level DRAM simulator
	// (internal/dram) and equals one FPU's stream demand, making 1P1B the
	// balanced design point.
	BankStreamBW units.BytesPerSecond
}

// DefaultBankStreamBW is the per-bank sustained streaming bandwidth used by
// the analytic model.
var DefaultBankStreamBW = units.GBps(2.664)

// NewStack builds a stack for the configuration, solving the area constraint
// for the bank count.
func NewStack(c PIMConfig) Stack {
	return Stack{
		Config:       c,
		FPU:          DefaultFPU(),
		BanksPerDie:  c.BanksPerDie(),
		Dies:         DiesPerStack,
		BankStreamBW: DefaultBankStreamBW,
	}
}

// Banks returns the stack's total bank count.
func (s *Stack) Banks() int { return s.BanksPerDie * s.Dies }

// FPUs returns the stack's total FPU count.
func (s *Stack) FPUs() int {
	if s.Config.Banks == 0 {
		return 0
	}
	return s.Banks() * s.Config.FPUs / s.Config.Banks
}

// Capacity returns the stack's memory capacity.
func (s *Stack) Capacity() units.Bytes {
	return units.Bytes(float64(s.Banks()) * BankCapacityBytes)
}

// ComputeRate returns the stack's aggregate FPU throughput.
func (s *Stack) ComputeRate() units.FLOPSRate {
	return units.FLOPSRate(float64(s.FPUs()) * float64(s.FPU.Rate()))
}

// StreamBW returns the stack's aggregate bank streaming bandwidth (the DRAM
// supply side).
func (s *Stack) StreamBW() units.BytesPerSecond {
	return units.BytesPerSecond(float64(s.Banks()) * float64(s.BankStreamBW))
}

// DieArea returns the occupied area of one die in mm².
func (s *Stack) DieArea() float64 {
	return float64(s.BanksPerDie) * s.Config.AreaPerBankMM2()
}

// Validate checks the stack against the physical constraints. It reports an
// error naming the violated constraint, used by failure-injection tests and
// by the design layer in internal/design.
func (s *Stack) Validate() error {
	if s.BanksPerDie <= 0 {
		return fmt.Errorf("hbm: %s stack has no banks", s.Config)
	}
	if area := s.DieArea(); area > DieAreaCapMM2 {
		return fmt.Errorf("hbm: %s die area %.2f mm² exceeds cap %.0f mm²", s.Config, area, DieAreaCapMM2)
	}
	if s.Dies != DiesPerStack {
		return fmt.Errorf("hbm: stack height %d, want %d", s.Dies, DiesPerStack)
	}
	return nil
}

// Preset stacks for the evaluated designs (§7.1).

// standardBanksPerDie is the plain HBM3 die floorplan: 128 banks per die,
// giving the standard 16 GB stack of §7.1. The area solver would allow a few
// more banks (144 plain, 136 for 1P2B), but commodity dies keep the standard
// floorplan; only FC-PIM rebalances area between banks and FPUs.
const standardBanksPerDie = 128

// PlainStack returns a non-PIM 16 GB HBM3 stack (the GPU-local memory of the
// A100+AttAcc and A100+HBM-PIM baselines).
func PlainStack() Stack {
	s := NewStack(Plain)
	s.BanksPerDie = standardBanksPerDie
	return s
}

// AttAccStack returns the AttAcc 1P1B device: 1024 banks, 1024 FPUs, 16 GB.
// The solver's area-max for 1P1B is exactly the standard 128 banks/die.
func AttAccStack() Stack { return NewStack(OnePerBank) }

// HBMPIMStack returns the Samsung HBM-PIM / PAPI Attn-PIM 1P2B device:
// 1024 banks, 512 FPUs, 16 GB (standard floorplan, not the area-max 136).
func HBMPIMStack() Stack {
	s := NewStack(OnePerTwoBanks)
	s.BanksPerDie = standardBanksPerDie
	return s
}

// FCPIMStack returns the PAPI FC-PIM 4P1B device: 96 banks/die → 768 banks,
// 3072 FPUs, 12 GB.
func FCPIMStack() Stack { return NewStack(FourPerBank) }
