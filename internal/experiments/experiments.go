// Package experiments contains one driver per figure in the paper's
// evaluation (§3 and §7), plus the fleet-scale sweeps grown on top: the
// Capacity QPS sweep (max sustainable rate under a TPOT SLO) and the
// Scenarios sweep (every registered workload regime × the comparison
// designs). Each driver runs the relevant simulation sweep and returns a
// typed result with a String() rendering; cmd/papibench prints them all,
// the golden fixtures under testdata/golden/ pin every number, and the shape
// tests check the outcomes against the paper's.
//
// The drivers are deterministic (fixed seeds) so regenerated tables are
// stable across runs and machines — including the sweeps that fan their
// (scenario, design) cells out over a worker pool, because every cell is
// independently seeded and results are folded in input order.
package experiments

import (
	"fmt"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/workload"
)

// Seed is the workload seed shared by every figure driver.
const Seed = 42

// Config identifies one (batch, speculation-length) sweep point.
type Config struct {
	Batch int
	Spec  int
}

// String renders the point as the figures label it.
func (c Config) String() string { return fmt.Sprintf("b=%d spe=%d", c.Batch, c.Spec) }

// Fig8Grid is the batch × speculation grid of Figs. 8, 9 and 11.
func Fig8Grid() []Config {
	var grid []Config
	for _, spec := range []int{1, 2, 4} {
		for _, batch := range []int{4, 16, 64} {
			grid = append(grid, Config{Batch: batch, Spec: spec})
		}
	}
	return grid
}

// runOne executes one batch on one design and fails loudly on configuration
// errors (the sweeps only use known-good configurations).
func runOne(sys *design.System, cfg model.Config, ds workload.Dataset, c Config) serving.Result {
	reqs := ds.Generate(c.Batch, Seed)
	eng, err := serving.New(sys, cfg, serving.DefaultOptions(c.Spec))
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s %s: %v", sys.Name, cfg.Name, c, err))
	}
	res, err := eng.RunBatch(reqs)
	if err != nil {
		panic(fmt.Sprintf("experiments: %s/%s %s: %v", sys.Name, cfg.Name, c, err))
	}
	return res
}
