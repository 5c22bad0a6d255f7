package cluster

import (
	"runtime"
	"testing"

	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// TestSteadyStateAllocations pins what a constant-memory fleet allocates
// for each request it serves: the drive of a run on twice the input may
// allocate only a little more than the drive of the run on the input. A
// replica reuses the records and leases of completed requests, the failover
// ledger reuses its entries, and follow-up turns and deadlines go on the
// kernel as values (see TestArmingEventsAllocatesNothing), so hardly
// anything grows with the input: the latency sketches, and a reused lease
// whose buffers meet a longer context than they held before.
func TestSteadyStateAllocations(t *testing.T) {
	// drive runs a fresh fleet on the input and counts the allocations of
	// its drive alone: building the fleet and aggregating its result, which
	// do not depend on the input's length, stay outside.
	drive := func(opt Options, reqs []workload.Request, convs []workload.Conversation) uint64 {
		opt.Router = LeastOutstanding()
		c, err := New(newPAPI, model.OPT30B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		var allocs uint64
		_, err = runDriven(c, reqs, convs, func(r *fleetRun) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			r.drain()
			runtime.ReadMemStats(&after)
			allocs = after.Mallocs - before.Mallocs
		})
		if err != nil {
			t.Fatal(err)
		}
		return allocs
	}
	chat := serving.DefaultOptions(4)
	chat.KV = sharingKV()
	crash := &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 1, At: 1},
	}}
	for _, tc := range []struct {
		name string
		opt  Options
		// input returns n requests, or a plan of n conversations, and how
		// many requests that is.
		input      func(n int) ([]workload.Request, []workload.Conversation, int)
		perRequest float64
	}{
		// 0.028 per added turn at the time of writing, 4.73 when every turn
		// took a fresh record, lease and follow-up closure.
		{"chat", Options{Replicas: 4, MaxBatch: 8, Serving: chat},
			func(n int) ([]workload.Request, []workload.Conversation, int) {
				convs := chatPlan(t, n, 5)
				return nil, convs, workload.TotalTurns(convs)
			}, 0.05},
		// 0.020 per added request at the time of writing, 3.03 when every
		// request took a fresh record, ledger entry and deadline closure.
		{"timeout-crash", Options{Replicas: 3, MaxBatch: 8, Serving: serving.DefaultOptions(1),
			Faults: crash, Retries: 1, RetryBackoff: units.Seconds(0.05), Timeout: units.Seconds(5)},
			func(n int) ([]workload.Request, []workload.Conversation, int) {
				return workload.GeneralQA().Poisson(n, 10, 5), nil, n
			}, 0.05},
	} {
		reqs, convs, n := tc.input(400)
		small := drive(tc.opt, reqs, convs)
		reqs, convs, n2 := tc.input(800)
		large := drive(tc.opt, reqs, convs)
		if per := float64(large-small) / float64(n2-n); per > tc.perRequest {
			t.Errorf("%s: %.3f allocations per added request, want ≤ %v", tc.name, per, tc.perRequest)
		}
	}
}

// TestArmingEventsAllocatesNothing pins that a fleet event is a value on the
// kernel: neither a steady autoscaler tick, which makes no scale decision
// and re-arms the next tick, nor the retry handleCasualty arms for a request
// the ledger already tracks, allocates. Each call puts one more item on the
// kernel; AllocsPerRun counts whole allocations per call, so the heap's
// amortized growth reads 0, and a closure per armed event would read 1.
func TestArmingEventsAllocatesNothing(t *testing.T) {
	c, err := New(newPAPI, model.OPT30B(), Options{Replicas: 1, MaxBatch: 8,
		Serving: serving.DefaultOptions(1), Autoscale: &AutoscaleOptions{Min: 1, Max: 1},
		Retries: 1, Timeout: units.Seconds(5)})
	if err != nil {
		t.Fatal(err)
	}
	r, err := c.newFleetRun()
	if err != nil {
		t.Fatal(err)
	}
	now := r.kernel.Now()
	r.resil.newTrack(0).attempts = 1
	lost := serving.Casualty{Request: workload.Request{ID: 0, InputLen: 64, OutputLen: 64}}
	for _, tc := range []struct {
		name string
		arm  func()
	}{
		{"tick", func() { r.scaler.tick(now) }},
		{"retry", func() { r.resil.handleCasualty(lost, now, "timeout") }},
	} {
		pending, calls := r.kernel.Pending(), 0
		allocs := testing.AllocsPerRun(100, func() { tc.arm(); calls++ })
		if armed := r.kernel.Pending() - pending; armed != calls {
			t.Errorf("%s: %d calls armed %d kernel events, want one each", tc.name, calls, armed)
		}
		if allocs != 0 {
			t.Errorf("%s: %v allocations per call, want 0", tc.name, allocs)
		}
	}
	if len(r.scaler.events) != 0 {
		t.Errorf("the ticks made %d scale decisions, want none", len(r.scaler.events))
	}
}
