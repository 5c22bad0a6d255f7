// Command dramsim exercises the command-level HBM3 DRAM substrate directly:
// it streams rows through one channel and reports sustained bandwidth,
// per-byte energy and command statistics — the calibration measurements
// behind the analytic PIM model's constants.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/papi-sim/papi/internal/dram"
)

func main() {
	var (
		rows       = flag.Int("rows", 64, "rows to stream per bank")
		broadcast  = flag.Bool("broadcast", false, "use HBM-PIM all-bank mode (one command drives all 16 banks)")
		write      = flag.Bool("write", false, "stream writes instead of reads")
		singleBank = flag.Bool("single-bank", false, "restrict the stream to one bank")
	)
	flag.Parse()

	if err := run(*rows, *broadcast, *write, *singleBank); err != nil {
		fmt.Fprintln(os.Stderr, "dramsim:", err)
		os.Exit(1)
	}
}

func run(rows int, broadcast, write, singleBank bool) error {
	g, t, e := dram.PIMChannelGeometry(), dram.HBM3Timing(), dram.HBM3Energy()
	if singleBank && broadcast {
		return fmt.Errorf("-single-bank and -broadcast cannot be combined: all-bank mode drives every bank")
	}
	spec := dram.StreamSpec{Rows: rows, Write: write, Broadcast: broadcast}
	if singleBank {
		spec.BankGroups = []int{0}
		spec.Banks = []int{0}
	}
	res, err := dram.RunStream(g, t, e, spec)
	if err != nil {
		return fmt.Errorf("-rows: %w", err)
	}

	fmt.Printf("geometry        %d bank groups × %d banks, %v rows, %v columns\n",
		g.BankGroups, g.BanksPerGroup, g.RowBytes, g.ColBytes)
	fmt.Printf("streamed        %v in %v\n", res.Bytes, res.Elapsed)
	fmt.Printf("bandwidth       %v", res.Bandwidth)
	if singleBank {
		fmt.Printf("  (analytic model per-bank constant: 2.664 GB/s)")
	}
	fmt.Println()
	fmt.Printf("energy          %.1f pJ/B  (analytic DRAM-access constant: 43.9 pJ/B)\n", float64(res.EnergyPerByte))
	s := res.Stats
	fmt.Printf("commands        ACT %d  PRE %d  RD %d  WR %d  REF %d\n", s.Acts, s.Pres, s.Reads, s.Writes, s.Refreshes)
	fmt.Printf("row buffer      %.1f%% hit rate\n", 100*s.RowHitRate())
	fmt.Printf("command energy  %v  background %v\n", s.CommandEnergy, s.BackgroundEnergy)
	return nil
}
