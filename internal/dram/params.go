// Package dram implements a command-level HBM3 DRAM simulator in the style of
// Ramulator 2.0 (the substrate the paper's evaluation is built on).
//
// The simulator models per-bank state machines (ACT/PRE/RD/WR/REF), the JEDEC
// inter-command timing constraints (tRCD, tRP, tRAS, tCCD_S/L, tRRD_S/L,
// tFAW, tRTP, tWR, tRFC/tREFI), an FR-FCFS per-channel command scheduler with
// an open-page policy, and per-command energy counters.
//
// It serves two roles in this repository:
//
//  1. Calibration: the sustained per-bank streaming bandwidth and the per-byte
//     DRAM access energy measured here back the closed-form constants used by
//     the fast analytic PIM model (internal/pim).
//  2. Detailed execution: PIM kernel microbenchmarks (Fig. 7) can run against
//     the command-level model directly.
package dram

import "github.com/papi-sim/papi/internal/units"

// Timing holds the inter-command timing constraints. All values are absolute
// durations (the command clock tCK quantises command issue).
type Timing struct {
	TCK   units.Seconds // command clock period (333 MHz per the paper's setup)
	TRCD  units.Seconds // ACT to RD/WR
	TRP   units.Seconds // PRE to ACT
	TRAS  units.Seconds // ACT to PRE (minimum row open time)
	TRC   units.Seconds // ACT to ACT, same bank
	TCCDS units.Seconds // CAS to CAS, different bank group
	TCCDL units.Seconds // CAS to CAS, same bank group
	TRRDS units.Seconds // ACT to ACT, different bank group
	TRRDL units.Seconds // ACT to ACT, same bank group
	TFAW  units.Seconds // four-ACT window
	TRTP  units.Seconds // RD to PRE
	TWR   units.Seconds // end of write data to PRE
	TCL   units.Seconds // CAS latency (RD to first data)
	TBL   units.Seconds // burst length on the data pins
	TRFC  units.Seconds // refresh cycle time
	TREFI units.Seconds // refresh interval
}

// Energy holds per-command energies and background power.
type Energy struct {
	ActPJ       float64     // per ACT+PRE pair (row activation energy)
	RdColPJ     float64     // per read column access
	WrColPJ     float64     // per write column access
	RefPJ       float64     // per refresh command
	BackgroundW units.Watts // standby/background power per channel
}

// Geometry describes one DRAM channel's structure. A PIM-enabled HBM die is a
// collection of such channels (see internal/hbm for the stack-level view).
type Geometry struct {
	BankGroups    int         // bank groups per channel
	BanksPerGroup int         // banks per bank group
	Rows          int         // rows per bank
	RowBytes      units.Bytes // row (page) size
	ColBytes      units.Bytes // column access granularity
}

// Banks returns the total banks in the channel.
func (g Geometry) Banks() int { return g.BankGroups * g.BanksPerGroup }

// ColsPerRow returns the number of column accesses a full row provides.
func (g Geometry) ColsPerRow() int { return int(float64(g.RowBytes) / float64(g.ColBytes)) }

// HBM3Timing returns the timing set used throughout the repository: an HBM3
// device at 5.2 Gb/s/pin with a 333 MHz command clock, per the paper's §7.1.
// Values are representative JEDEC HBM3 numbers quantised to the command clock.
func HBM3Timing() Timing {
	tck := units.Nanoseconds(3.0) // 333 MHz
	return Timing{
		TCK:   tck,
		TRCD:  units.Nanoseconds(15),
		TRP:   units.Nanoseconds(15),
		TRAS:  units.Nanoseconds(33),
		TRC:   units.Nanoseconds(48),
		TCCDS: units.Nanoseconds(3),
		TCCDL: units.Nanoseconds(6),
		TRRDS: units.Nanoseconds(6),
		TRRDL: units.Nanoseconds(9),
		TFAW:  units.Nanoseconds(30),
		TRTP:  units.Nanoseconds(6),
		TWR:   units.Nanoseconds(15),
		TCL:   units.Nanoseconds(24),
		TBL:   units.Nanoseconds(3),
		TRFC:  units.Nanoseconds(260),
		TREFI: units.Microseconds(3.9),
	}
}

// HBM3Energy returns the per-command energy set. The constants are chosen so
// that streaming GEMV reads cost ~43.9 pJ/B in aggregate (12 nJ per 1 KiB row
// activation = 11.7 pJ/B, plus 0.515 nJ per 16 B column = 32.2 pJ/B), which is
// the "DRAM Access" component of the analytic PIM energy model that
// reproduces the paper's Fig. 7 breakdown.
func HBM3Energy() Energy {
	return Energy{
		ActPJ:       12000,
		RdColPJ:     515,
		WrColPJ:     560,
		RefPJ:       28000,
		BackgroundW: 0.08,
	}
}

// PIMChannelGeometry returns the channel organisation used by the PIM dies in
// this repository: 4 bank groups of 4 banks, 1 KiB rows, and a 16 B per-bank
// local column width (the PIM datapath reads through per-bank I/O rather than
// the shared channel DQs).
func PIMChannelGeometry() Geometry {
	return Geometry{
		BankGroups:    4,
		BanksPerGroup: 4,
		Rows:          16384,
		RowBytes:      units.Bytes(1024),
		ColBytes:      units.Bytes(16),
	}
}
