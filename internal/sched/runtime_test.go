package sched_test

import (
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/sched"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/workload"
)

// The runtime half of §5.2 lives in the serving stepper, whose active batch
// is the RLP: these tests drive it and read the placements it traced.

func papiEngine(t *testing.T, alpha float64) *serving.Engine {
	t.Helper()
	eng, err := serving.New(design.MustBuild(design.PAPI(alpha)), model.LLaMA65B(), serving.DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func requests(first int, outputs ...int) []workload.Request {
	reqs := make([]workload.Request, len(outputs))
	for i, out := range outputs {
		reqs[i] = workload.Request{ID: first + i, InputLen: 64, OutputLen: out}
	}
	return reqs
}

func TestSchedulerLifecycle(t *testing.T) {
	// Fig. 5(d): RLP 5 → 4 → 4 → 3 → 2, TLP 1. With α between 2 and 5 the
	// placement flips from PU to PIM as requests finish.
	res, err := papiEngine(t, 4).RunBatch(requests(0, 1, 3, 4, 5, 5))
	if err != nil {
		t.Fatal(err)
	}
	want := []sched.Placement{sched.PlacePU, sched.PlacePU, sched.PlacePU, sched.PlaceFCPIM, sched.PlaceFCPIM}
	if len(res.IterStats) != len(want) {
		t.Fatalf("%d iterations traced, want %d", len(res.IterStats), len(want))
	}
	for i, it := range res.IterStats {
		if it.Index != i || it.Placement != want[i] {
			t.Fatalf("iteration %d: index %d, placement %v at RLP %d; want index %d, %v (trace %+v)",
				i, it.Index, it.Placement, it.RLP, i, want[i], res.IterStats)
		}
	}
	if res.Reschedules != 1 {
		t.Fatalf("reschedules = %d, want 1", res.Reschedules)
	}
	if last := res.IterStats[len(res.IterStats)-1]; last.RLP != 2 {
		t.Fatalf("final RLP = %d, want 2", last.RLP)
	}
}

func TestContinuousBatchingAdmission(t *testing.T) {
	// Four requests decode at RLP 4 < α = 10 on FC-PIM; twelve more join
	// the running batch mid-decode, and RLP 16 moves FC to the PUs.
	st, err := papiEngine(t, 10).NewStreamStepper(requests(0, 32, 32, 32, 32), 16)
	if err != nil {
		t.Fatal(err)
	}
	// A horizon at the clock runs one iteration per Step.
	st.SetHorizon(0)
	if _, err := st.Step(); err != nil {
		t.Fatal(err)
	}
	for _, r := range requests(4, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8) {
		r.Arrival = st.Now()
		if err := st.Push(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := st.Step(); err != nil {
		t.Fatal(err)
	}
	res := st.Finalize()
	if len(res.IterStats) != 2 {
		t.Fatalf("%d iterations traced, want 2", len(res.IterStats))
	}
	if it := res.IterStats[0]; it.RLP != 4 || it.Placement != sched.PlaceFCPIM {
		t.Fatalf("first iteration at RLP %d on %v, want RLP 4 on FC-PIM", it.RLP, it.Placement)
	}
	if it := res.IterStats[1]; it.RLP != 16 || it.Placement != sched.PlacePU {
		t.Fatalf("after admission: RLP %d on %v, want RLP 16 on PU", it.RLP, it.Placement)
	}
	if res.Reschedules != 1 {
		t.Fatalf("reschedules = %d, want 1", res.Reschedules)
	}
}
