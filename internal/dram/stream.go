package dram

import (
	"fmt"

	"github.com/papi-sim/papi/internal/sim"
	"github.com/papi-sim/papi/internal/units"
)

// StreamSpec describes a sequential read/write sweep over a bank range, the
// access pattern of a GEMV weight stream in a PIM device (each bank streams
// its resident weight tile row by row).
type StreamSpec struct {
	BankGroups []int // bank groups to touch (nil = all)
	Banks      []int // banks within each group (nil = all)
	Rows       int   // rows to stream per bank
	Write      bool
	// Broadcast streams in HBM-PIM all-bank mode: each command accesses the
	// same row/column in every bank simultaneously (BankGroups/Banks ignored).
	Broadcast bool
}

// StreamResult reports the outcome of a stream measurement.
type StreamResult struct {
	Bytes         units.Bytes
	Elapsed       units.Seconds
	Stats         Stats
	Bandwidth     units.BytesPerSecond
	EnergyPerByte units.PicojoulesPerByte
}

// RunStream drives a fresh controller through spec and measures sustained
// bandwidth and energy. Requests for all banks are submitted up front and the
// controller interleaves them subject to timing constraints, exactly like a
// PIM device streaming weight tiles from every bank concurrently. It rejects
// a spec that streams fewer rows than one or more than a bank holds, or that
// names a bank group or a bank outside the geometry.
func RunStream(g Geometry, t Timing, e Energy, spec StreamSpec) (StreamResult, error) {
	// Every row is submitted up front, so the bound also caps what one run
	// allocates.
	if spec.Rows < 1 || spec.Rows > g.Rows {
		return StreamResult{}, fmt.Errorf("dram: %d rows outside [1, %d], the rows per bank", spec.Rows, g.Rows)
	}
	engine := sim.New(sim.Call)
	ctrl := NewController(engine, g, t, e)

	groups := spec.BankGroups
	if groups == nil {
		groups = make([]int, g.BankGroups)
		for i := range groups {
			groups[i] = i
		}
	}
	banks := spec.Banks
	if banks == nil {
		banks = make([]int, g.BanksPerGroup)
		for i := range banks {
			banks[i] = i
		}
	}
	if spec.Broadcast {
		// One command stream drives all banks.
		groups, banks = []int{0}, []int{0}
	}
	cols := g.ColsPerRow()

	var total units.Bytes
	var last units.Seconds
	for r := 0; r < spec.Rows; r++ {
		for _, bg := range groups {
			for _, b := range banks {
				for col := 0; col < cols; col++ {
					req := &Request{
						Addr:      Address{BankGroup: bg, Bank: b, Row: r, Col: col},
						Write:     spec.Write,
						Broadcast: spec.Broadcast,
						Done: func(fin units.Seconds) {
							if fin > last {
								last = fin
							}
						},
					}
					if err := ctrl.Submit(req); err != nil {
						return StreamResult{}, err
					}
					if spec.Broadcast {
						total += units.Bytes(float64(g.Banks())) * g.ColBytes
					} else {
						total += g.ColBytes
					}
				}
			}
		}
	}
	engine.Run()

	st := ctrl.Stats()
	res := StreamResult{Bytes: total, Elapsed: last, Stats: st}
	if last > 0 {
		res.Bandwidth = units.BytesPerSecond(float64(total) / float64(last))
	}
	if total > 0 {
		res.EnergyPerByte = units.PicojoulesPerByte(float64(st.TotalEnergy()) * 1e12 / float64(total))
	}
	return res, nil
}

// MeasureBankStreamBandwidth streams rows from a single bank and returns the
// sustained per-bank read bandwidth. This is the calibration source for the
// analytic PIM model's per-bank streaming rate.
func MeasureBankStreamBandwidth(rows int) (StreamResult, error) {
	return RunStream(PIMChannelGeometry(), HBM3Timing(), HBM3Energy(), StreamSpec{
		BankGroups: []int{0},
		Banks:      []int{0},
		Rows:       rows,
	})
}

// MeasureAllBankStreamBandwidth streams rows in all-bank broadcast mode and
// returns the aggregate bandwidth, which should approach banks × per-bank,
// and the aggregate energy per byte — the calibration source for the
// analytic model's DRAM-access energy constant.
func MeasureAllBankStreamBandwidth(rows int) (StreamResult, error) {
	return RunStream(PIMChannelGeometry(), HBM3Timing(), HBM3Energy(), StreamSpec{
		Rows:      rows,
		Broadcast: true,
	})
}
