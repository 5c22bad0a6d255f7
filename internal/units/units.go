// Package units defines the physical quantities used throughout the PAPI
// simulator: work (FLOPs), data volume (bytes), time, energy and power.
//
// All quantities are float64 wrappers. The simulator is analytic at its core
// (roofline arithmetic over very large kernels), so floating point is the
// natural representation; integer cycle counts appear only inside the
// command-level DRAM simulator, which has its own clock domain.
package units

import (
	"fmt"
	"math"
)

// FLOPs counts floating-point operations (a fused multiply-add is 2 FLOPs,
// matching the convention of the paper's roofline analysis).
type FLOPs float64

// Bytes counts data volume.
type Bytes float64

// Seconds measures simulated wall-clock time.
type Seconds float64

// Joules measures energy.
type Joules float64

// Watts measures power.
type Watts float64

// BytesPerSecond measures bandwidth.
type BytesPerSecond float64

// FLOPSRate measures compute throughput in FLOP/s.
type FLOPSRate float64

// PicojoulesPerByte measures per-byte energy cost.
type PicojoulesPerByte float64

// Common scale factors.
const (
	Kilo = 1e3
	Mega = 1e6
	Giga = 1e9
	Tera = 1e12
	Peta = 1e15

	KiB = 1024
	MiB = 1024 * 1024
	GiB = 1024 * 1024 * 1024
)

// GB constructs a byte count from gigabytes (decimal, as in bandwidth specs).
func GB(v float64) Bytes { return Bytes(v * Giga) }

// GiBytes constructs a byte count from binary gigabytes (as in capacities).
func GiBytes(v float64) Bytes { return Bytes(v * GiB) }

// GBps constructs a bandwidth from GB/s.
func GBps(v float64) BytesPerSecond { return BytesPerSecond(v * Giga) }

// TFLOPS constructs a compute rate from TFLOP/s.
func TFLOPS(v float64) FLOPSRate { return FLOPSRate(v * Tera) }

// Microseconds constructs a duration from µs.
func Microseconds(v float64) Seconds { return Seconds(v * 1e-6) }

// Milliseconds constructs a duration from ms.
func Milliseconds(v float64) Seconds { return Seconds(v * 1e-3) }

// Nanoseconds constructs a duration from ns.
func Nanoseconds(v float64) Seconds { return Seconds(v * 1e-9) }

// PJPerByte constructs a per-byte energy from pJ/B.
func PJPerByte(v float64) PicojoulesPerByte { return PicojoulesPerByte(v) }

// Raw accessors. These are the only sanctioned way to drop a dimension: the
// unitsafety analyzer (cmd/papivet) flags raw float64(x) casts outside this
// package, so every place a quantity becomes a bare number is greppable by
// method name and carries its unit in the call. Each returns the value in
// the type's base unit.

func (f FLOPs) FLOPs() float64                 { return float64(f) }
func (b Bytes) Bytes() float64                 { return float64(b) }
func (s Seconds) Seconds() float64             { return float64(s) }
func (j Joules) Joules() float64               { return float64(j) }
func (w Watts) Watts() float64                 { return float64(w) }
func (bw BytesPerSecond) BytesPerSec() float64 { return float64(bw) }
func (r FLOPSRate) FLOPSPerSec() float64       { return float64(r) }
func (e PicojoulesPerByte) PJPerB() float64    { return float64(e) }

// Scale multiplies a quantity by a dimensionless factor (layer counts,
// device counts, percentages) without leaving the dimension.

func (f FLOPs) Scale(k float64) FLOPs     { return FLOPs(float64(f) * k) }
func (b Bytes) Scale(k float64) Bytes     { return Bytes(float64(b) * k) }
func (s Seconds) Scale(k float64) Seconds { return Seconds(float64(s) * k) }
func (j Joules) Scale(k float64) Joules   { return Joules(float64(j) * k) }
func (w Watts) Scale(k float64) Watts     { return Watts(float64(w) * k) }

// Ratio returns the dimensionless quotient of two same-unit quantities —
// speedups, utilizations, fractions. A different-unit quotient is a new
// dimension and must go through the typed operations (Power, Energy, Time).
func Ratio[T ~float64](num, den T) float64 { return float64(num) / float64(den) }

// Time returns the time to move b bytes at bandwidth bw.
// A zero bandwidth yields +Inf (an unusable link), never a panic.
func (bw BytesPerSecond) Time(b Bytes) Seconds {
	if bw <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(b) / float64(bw))
}

// Time returns the time to execute f FLOPs at rate r.
func (r FLOPSRate) Time(f FLOPs) Seconds {
	if r <= 0 {
		return Seconds(math.Inf(1))
	}
	return Seconds(float64(f) / float64(r))
}

// Energy returns the energy to process b bytes at cost e.
func (e PicojoulesPerByte) Energy(b Bytes) Joules {
	return Joules(float64(e) * 1e-12 * float64(b))
}

// Energy returns power integrated over a duration.
func (w Watts) Energy(t Seconds) Joules { return Joules(float64(w) * float64(t)) }

// Power returns the average power of spending j joules over t seconds.
func (j Joules) Power(t Seconds) Watts {
	if t <= 0 {
		return 0
	}
	return Watts(float64(j) / float64(t))
}

// Intensity returns arithmetic intensity in FLOP/byte, the roofline x-axis.
// Zero bytes yields +Inf (pure-compute kernel).
func Intensity(f FLOPs, b Bytes) float64 {
	if b <= 0 {
		return math.Inf(1)
	}
	return float64(f) / float64(b)
}

// Max returns the larger of two durations; used for roofline max(compute, memory).
func Max(a, b Seconds) Seconds {
	if a > b {
		return a
	}
	return b
}

// String implementations render values with engineering prefixes so that
// tables printed by cmd/papibench are directly readable.

func (f FLOPs) String() string           { return engineering(float64(f), "FLOP") }
func (b Bytes) String() string           { return engineering(float64(b), "B") }
func (j Joules) String() string          { return engineering(float64(j), "J") }
func (w Watts) String() string           { return engineering(float64(w), "W") }
func (bw BytesPerSecond) String() string { return engineering(float64(bw), "B/s") }
func (r FLOPSRate) String() string       { return engineering(float64(r), "FLOP/s") }

// String renders a duration using time-natural units.
func (s Seconds) String() string {
	v := float64(s)
	abs := math.Abs(v)
	switch {
	case abs == 0:
		return "0s"
	case math.IsInf(v, 0):
		return fmt.Sprintf("%fs", v)
	case abs < 1e-6:
		return fmt.Sprintf("%.2fns", v*1e9)
	case abs < 1e-3:
		return fmt.Sprintf("%.2fµs", v*1e6)
	case abs < 1:
		return fmt.Sprintf("%.3fms", v*1e3)
	default:
		return fmt.Sprintf("%.3fs", v)
	}
}

// engineering formats v with an SI prefix.
func engineering(v float64, unit string) string {
	abs := math.Abs(v)
	switch {
	case abs == 0:
		return "0" + unit
	case math.IsInf(v, 0) || math.IsNaN(v):
		return fmt.Sprintf("%f%s", v, unit)
	case abs >= Peta:
		return fmt.Sprintf("%.3gP%s", v/Peta, unit)
	case abs >= Tera:
		return fmt.Sprintf("%.3gT%s", v/Tera, unit)
	case abs >= Giga:
		return fmt.Sprintf("%.3gG%s", v/Giga, unit)
	case abs >= Mega:
		return fmt.Sprintf("%.3gM%s", v/Mega, unit)
	case abs >= Kilo:
		return fmt.Sprintf("%.3gk%s", v/Kilo, unit)
	case abs >= 1:
		return fmt.Sprintf("%.3g%s", v, unit)
	case abs >= 1e-3:
		return fmt.Sprintf("%.3gm%s", v*1e3, unit)
	case abs >= 1e-6:
		return fmt.Sprintf("%.3gµ%s", v*1e6, unit)
	case abs >= 1e-9:
		return fmt.Sprintf("%.3gn%s", v*1e9, unit)
	default:
		return fmt.Sprintf("%.3gp%s", v*1e12, unit)
	}
}
