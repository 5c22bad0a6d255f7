package cluster

import (
	"fmt"
	"testing"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/workload"
)

// Fleet-level fast-path equivalence: replicas free-running their decode
// windows under the barrier driver — bounded by the event-kernel horizon,
// priced from each engine's own kernel memo, routed on the O(1) router
// signals — must leave the whole FleetResult deep-equal to the time-order
// reference driver, which steps every replica one iteration at a time.

// fastPathFleet returns a build function for the three-replica PAPI fleet
// the fast-path pins share.
func fastPathFleet(t *testing.T, tlp int) func() *Cluster {
	return func() *Cluster {
		cl, err := NewByName("PAPI", model.OPT30B(), Options{
			Replicas:       3,
			MaxBatch:       6,
			Router:         LeastOutstanding(),
			Serving:        serving.DefaultOptions(tlp),
			RetainRequests: true,
			RetainStream:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
}

func TestFastPathEquivalenceFleetOpenLoop(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(40, 60, 23)
	for _, tlp := range []int{1, 4} {
		matchDrivers(t, fmt.Sprintf("open-loop fleet TLP=%d", tlp), fastPathFleet(t, tlp), reqs, nil)
	}
}

// TestFastPathEquivalenceFleetTiered runs the flagship tiered-diurnal
// stream, whose class-boundary events bound the priority-aware windows,
// through the fleet in both TLP regimes.
func TestFastPathEquivalenceFleetTiered(t *testing.T) {
	reqs := tieredStream(t, 72, 37)
	for _, tlp := range []int{1, 4} {
		matchDrivers(t, fmt.Sprintf("tiered fleet TLP=%d", tlp), fastPathFleet(t, tlp), reqs, nil)
	}
}

func TestFastPathEquivalenceFleetClosedLoop(t *testing.T) {
	plan := chatPlan(t, 12, 29)
	for _, tlp := range []int{1, 4} {
		matchDrivers(t, fmt.Sprintf("closed-loop fleet TLP=%d", tlp), fastPathFleet(t, tlp), nil, plan)
	}
}
