package cluster

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// referenceDrive is the time-order oracle the barrier driver is pinned
// against, reached through the drive parameter of the run body: it steps
// one replica at a time, one iteration per step, in (instant, replica ID)
// order; kernel events fire first at equal instants; and each step's
// deferred writes — the step error, ledger completions, power-off decisions
// and follow-up turns — apply right after it.
func referenceDrive(r *fleetRun) {
	for r.err == nil {
		var rep *Replica
		for _, x := range r.reps {
			if x.scheduled && (rep == nil || x.nextStep < rep.nextStep) {
				rep = x
			}
		}
		if at, ok := r.kernel.NextAt(); ok && (rep == nil || at <= rep.nextStep) {
			r.kernel.Step()
			continue
		}
		if rep == nil {
			return
		}
		rep.scheduled = false
		// A horizon at the step instant ends the window after one iteration.
		r.stepReplica(rep, rep.nextStep)
		r.settle(rep)
		if r.scaler != nil {
			r.scaler.flushStops()
		}
	}
}

// runDriven runs an open-loop stream (reqs, in Run's order) or a
// conversation plan (convs) on c under the given driver.
func runDriven(c *Cluster, reqs []workload.Request, convs []workload.Conversation, drive func(*fleetRun)) (*FleetResult, error) {
	if convs != nil {
		p := newConvPlan(convs)
		return c.run(p.nextFirst, p, drive)
	}
	return c.run(sortedSource(reqs), nil, drive)
}

// matchDrivers runs one fleet under the time-order reference and under the
// barrier driver — through Run or RunPlan — at Shards 1 and at each of
// shards, and fails unless every result deep-equals the reference. build
// must return a fresh cluster, with a fresh router, on every call: routers
// keep per-run state. It returns the reference result.
func matchDrivers(t *testing.T, label string, build func(shards int) *Cluster,
	reqs []workload.Request, convs []workload.Conversation, shards ...int) *FleetResult {
	t.Helper()
	want, err := runDriven(build(1), reqs, convs, referenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range append([]int{1}, shards...) {
		var got *FleetResult
		if convs != nil {
			got, err = build(n).RunPlan(convs)
		} else {
			got, err = build(n).Run(reqs)
		}
		if err != nil {
			t.Fatal(err)
		}
		diffFleet(t, fmt.Sprintf("%s shards=%d", label, n), want, got)
	}
	return want
}

// diffFleet pinpoints the first diverging exported field so an equivalence
// failure names the broken subsystem instead of dumping two full results.
func diffFleet(t *testing.T, label string, a, b *FleetResult) {
	t.Helper()
	if reflect.DeepEqual(a, b) {
		return
	}
	av, bv := reflect.ValueOf(*a), reflect.ValueOf(*b)
	for i := 0; i < av.NumField(); i++ {
		f := av.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if !reflect.DeepEqual(av.Field(i).Interface(), bv.Field(i).Interface()) {
			t.Errorf("%s: field %s diverged:\n want: %+v\n got:  %+v",
				label, f.Name, av.Field(i).Interface(), bv.Field(i).Interface())
		}
	}
	if !t.Failed() {
		t.Errorf("%s: results diverged in unexported state", label)
	}
}

// samePlan returns n copies of one conversation under distinct IDs, all
// arriving at the same instant: on a fleet of identical replicas their
// timelines coincide exactly, so completions, follow-ups and deadlines on
// different replicas tie.
func samePlan(t *testing.T, n int) []workload.Conversation {
	t.Helper()
	base := chatPlan(t, 1, 5)[0]
	convs := make([]workload.Conversation, n)
	for i := range convs {
		convs[i] = base
		convs[i].ID = i
	}
	return convs
}

// zeroThink returns the plan with every think time zero: each follow-up
// arrives at the instant its previous turn completed.
func zeroThink(convs []workload.Conversation) []workload.Conversation {
	for i := range convs {
		turns := append([]workload.Turn(nil), convs[i].Turns...)
		for k := range turns {
			turns[k].Think = 0
		}
		convs[i].Turns = turns
	}
	return convs
}

// TestShardedMatchesSerial pins the driver equivalence claim: the barrier
// driver, inline and on several shards, is bit-identical to the time-order
// reference, which runs every replica one iteration per step — every
// exported field, per-request record, realised stream, and energy ledger —
// for static and elastic fleets, open-loop and closed-loop. The open-loop
// rows run the tiered-diurnal stream. A fastpath-on row runs at TLP 1, its
// replicas free-running their decode windows between barriers, and a tlp4
// row runs the speculative regime; fastpath_test.go puts more open-loop and
// closed-loop fleets at TLP 1 and 4 through the same comparison.
func TestShardedMatchesSerial(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(8)}
	for _, tc := range []struct {
		name      string
		tlp       int
		autoscale *AutoscaleOptions
		convs     func(t *testing.T) []workload.Conversation
	}{
		{"static/fastpath-on", 1, nil, nil},
		{"autoscaled/fastpath-on", 1, DefaultAutoscale(1, 4, slo), nil},
		{"autoscaled/tlp4", 4, DefaultAutoscale(1, 4, slo), nil},
		{"plan/static", 1, nil,
			func(t *testing.T) []workload.Conversation { return chatPlan(t, 16, 23) }},
		{"plan/autoscaled", 1, DefaultAutoscale(1, 4, slo),
			func(t *testing.T) []workload.Conversation { return chatPlan(t, 16, 23) }},
		{"plan/autoscaled/tlp4", 4, DefaultAutoscale(1, 3, slo),
			func(t *testing.T) []workload.Conversation { return chatPlan(t, 16, 31) }},
		{"plan/zero-think", 1, nil,
			func(t *testing.T) []workload.Conversation { return zeroThink(chatPlan(t, 16, 31)) }},
		{"plan/same-instant", 1, nil,
			func(t *testing.T) []workload.Conversation { return samePlan(t, 6) }},
		{"plan/same-instant-zero-think", 1, nil,
			func(t *testing.T) []workload.Conversation { return zeroThink(samePlan(t, 6)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(shards int) *Cluster {
				opt := serving.DefaultOptions(tc.tlp)
				replicas := 3
				if tc.autoscale != nil {
					replicas = tc.autoscale.Min
				}
				cl, err := NewByName("PAPI", model.OPT30B(), Options{
					Replicas:       replicas,
					MaxBatch:       6,
					Router:         LeastOutstanding(),
					Serving:        opt,
					Autoscale:      tc.autoscale,
					Shards:         shards,
					RetainRequests: true,
					RetainStream:   true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			if tc.convs != nil {
				matchDrivers(t, tc.name, build, nil, tc.convs(t), 2, 4)
				return
			}
			matchDrivers(t, tc.name, build, tieredStream(t, 96, 23), nil, 2, 4)
		})
	}
}

// TestShardedMixedFleetMatchesSerial extends the equivalence pin to a mixed
// PAPI+baseline fleet, whose per-design split merges the replica aggregates.
func TestShardedMixedFleetMatchesSerial(t *testing.T) {
	build := func(shards int) *Cluster {
		cl, err := NewFromSpecs(mixedSpecs(t), model.OPT30B(), Options{
			Replicas:       4,
			MaxBatch:       6,
			Router:         LeastOutstanding(),
			Serving:        serving.DefaultOptions(1),
			Shards:         shards,
			RetainRequests: true,
			RetainStream:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	matchDrivers(t, "mixed", build, tieredStream(t, 64, 41), nil, 4)
	matchDrivers(t, "mixed plan", build, nil, chatPlan(t, 16, 41), 4)
}

// TestShardedFaultsMatchSerial extends the equivalence pin to fault-injected
// fleets: fault edges, timeout deadlines, and retry re-injections are kernel
// events, so the barrier driver treats them as barriers and must reproduce
// the reference failure trace — casualties, retries, failures, lost tokens,
// abandoned turns — bit-for-bit, open-loop and closed-loop.
func TestShardedFaultsMatchSerial(t *testing.T) {
	crashPlan := &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 0, At: 0.8},
	}}
	windowPlan := &faults.Plan{Name: "windows", Faults: []faults.Fault{
		{Kind: faults.KindStraggler, Replica: 1, At: 0.3, Factor: 2.5, Duration: 0.6},
		{Kind: faults.KindBrownout, At: 0.7, Factor: 1.8, Duration: 0.4},
		{Kind: faults.KindCrash, Replica: 2, At: 1.1},
	}}
	// The plan rows stretch the windows over the conversations' follow-ups.
	planWindows := &faults.Plan{Name: "plan-windows", Faults: []faults.Fault{
		{Kind: faults.KindStraggler, Replica: 1, At: 0.4, Factor: 2.5, Duration: 3},
		{Kind: faults.KindBrownout, At: 2.5, Factor: 1.8, Duration: 2},
		{Kind: faults.KindCrash, Replica: 2, At: 3.5},
	}}
	for _, tc := range []struct {
		name    string
		tlp     int
		plan    *faults.Plan
		timeout units.Seconds
		stream  func(t *testing.T) []workload.Request
		convs   func(t *testing.T) []workload.Conversation
	}{
		// Crash + bounded retries on a single-class stream.
		{"crash-retry", 1, crashPlan, 0,
			func(t *testing.T) []workload.Request { return workload.GeneralQA().Poisson(48, 60, 31) }, nil},
		// Straggler and brownout windows plus a crash on the tiered stream
		// (brownouts shed batch-class arrivals), with per-attempt timeouts
		// arming deadline events between arrivals.
		{"windows-tiered", 1, windowPlan, units.Seconds(2),
			func(t *testing.T) []workload.Request { return tieredStream(t, 64, 31) }, nil},
		{"windows-tiered/tlp4", 4, windowPlan, units.Seconds(2),
			func(t *testing.T) []workload.Request { return tieredStream(t, 64, 31) }, nil},
		// A crash with pinned conversations: casualties retry on survivors
		// and their conversations re-pin.
		{"plan/crash-retry", 1, crashPlan, 0, nil,
			func(t *testing.T) []workload.Conversation { return chatPlan(t, 12, 31) }},
		// Windows, a crash and tight timeouts on a plan: turns time out,
		// retry, and — out of retries — abandon their conversations.
		{"plan/windows-timeout", 1, planWindows, units.Seconds(0.6), nil,
			func(t *testing.T) []workload.Conversation { return chatPlan(t, 12, 37) }},
		{"plan/windows-timeout/tlp4", 4, planWindows, units.Seconds(0.6), nil,
			func(t *testing.T) []workload.Conversation { return chatPlan(t, 12, 37) }},
		// Zero think time and tied replicas under the same windows.
		{"plan/same-instant-timeout", 1, planWindows, units.Seconds(0.8), nil,
			func(t *testing.T) []workload.Conversation { return zeroThink(samePlan(t, 6)) }},
		// Two conversations on two replicas tie through their first turns,
		// so their different second turns arrive, time out and retry at the
		// same instants, and where each retry lands depends on the order
		// the follow-ups went on the kernel.
		{"plan/tied-timeouts", 1, nil, units.Seconds(0.5), nil,
			func(t *testing.T) []workload.Conversation {
				return []workload.Conversation{
					{ID: 0, Arrival: 0.1, Turns: []workload.Turn{{Input: 32, Output: 8}, {Input: 16, Output: 400, Think: 0.5}}},
					{ID: 1, Arrival: 0.1, Turns: []workload.Turn{{Input: 32, Output: 8}, {Input: 64, Output: 300, Think: 0.5}}},
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func(shards int) *Cluster {
				cl, err := New(newPAPI, model.LLaMA65B(), Options{
					Replicas:       3,
					MaxBatch:       8,
					Router:         LeastOutstanding(),
					Serving:        serving.DefaultOptions(tc.tlp),
					Faults:         tc.plan,
					Retries:        1,
					Timeout:        tc.timeout,
					RetryBackoff:   units.Seconds(0.05),
					Shards:         shards,
					RetainRequests: true,
					RetainStream:   true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			var reqs []workload.Request
			var convs []workload.Conversation
			if tc.convs != nil {
				convs = tc.convs(t)
			} else {
				reqs = tc.stream(t)
			}
			ref := matchDrivers(t, tc.name, build, reqs, convs, 2, 4)
			if tc.plan != nil && ref.Faults == 0 {
				t.Fatalf("fault plan never fired: the equivalence pin is vacuous")
			}
			if ref.Faults+ref.Retries == 0 {
				t.Fatalf("no fault fired and nothing retried: the equivalence pin is vacuous")
			}
		})
	}
}

// rotate cuts reqs at the first instant boundary from the middle and swaps
// the halves: same-instant arrivals stay in order, so only a stable sort by
// arrival restores the original stream.
func rotate(t *testing.T, reqs []workload.Request) []workload.Request {
	t.Helper()
	cut := len(reqs) / 2
	for cut < len(reqs) && reqs[cut].Arrival == reqs[cut-1].Arrival {
		cut++
	}
	if cut == len(reqs) {
		t.Fatal("no instant boundary past the middle of the stream")
	}
	return append(append([]workload.Request(nil), reqs[cut:]...), reqs[:cut]...)
}

// TestRunSeqMatchesRun: the lazy driver over an ordered stream reproduces
// Run over a rotated copy of it bit for bit, serial and sharded, which pins
// Run's stable sort. The burst stream packs six arrivals onto each of three
// instants: every arrival of a burst must route before any replica step at
// that instant, and in stream order, under both routers. The tail-burst
// stream ends on a burst, after which the source must not be pulled again.
func TestRunSeqMatchesRun(t *testing.T) {
	burst := workload.GeneralQA().Poisson(48, 40, 3)
	for i := 0; i < 18; i++ {
		burst[i].Arrival = units.Seconds(0.25 * float64(i/6))
	}
	tail := workload.GeneralQA().Poisson(16, 40, 5)
	for i := 12; i < len(tail); i++ {
		tail[i].Arrival = tail[11].Arrival
	}
	for _, tc := range []struct {
		name   string
		reqs   []workload.Request
		router func() Router
		shards []int
	}{
		{"tiered", tieredStream(t, 96, 29), LeastOutstanding, []int{1, 4}},
		{"burst/round-robin", burst, RoundRobin, []int{1, 2}},
		{"burst/least-outstanding", burst, LeastOutstanding, []int{1, 2}},
		{"tail-burst", tail, RoundRobin, []int{1, 2}},
	} {
		build := func(shards int) *Cluster {
			opt := testOptions(3, tc.router())
			opt.Shards = shards
			c, err := New(newPAPI, model.LLaMA65B(), opt)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		want, err := build(1).Run(rotate(t, tc.reqs))
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range tc.shards {
			got, err := build(shards).RunSeq(seqOf(t, tc.reqs))
			if err != nil {
				t.Fatal(err)
			}
			diffFleet(t, fmt.Sprintf("%s runseq shards=%d", tc.name, shards), want, got)
		}
	}
}

// seqOf returns a source over reqs that fails the test if it is pulled
// again after reporting no more.
func seqOf(t *testing.T, reqs []workload.Request) func() (workload.Request, bool) {
	i := 0
	return func() (workload.Request, bool) {
		if i > len(reqs) {
			t.Error("source pulled after it reported no more")
		}
		i++
		if i > len(reqs) {
			return workload.Request{}, false
		}
		return reqs[i-1], true
	}
}

// TestRunSeqValidation: a nil source, an empty stream, an out-of-order
// arrival, and a NaN or infinite arrival are errors, and none hangs the
// drain.
func TestRunSeqValidation(t *testing.T) {
	build := func() *Cluster {
		c, err := New(newPAPI, model.LLaMA65B(), testOptions(2, nil))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	if _, err := build().RunSeq(nil); err == nil {
		t.Error("nil source should fail")
	}
	if _, err := build().RunSeq(func() (workload.Request, bool) { return workload.Request{}, false }); err == nil {
		t.Error("empty stream should fail")
	}
	backwards := []workload.Request{
		{ID: 0, InputLen: 16, OutputLen: 4, Arrival: 2},
		{ID: 1, InputLen: 16, OutputLen: 4, Arrival: 1},
	}
	i := 0
	_, err := build().RunSeq(func() (workload.Request, bool) {
		if i >= len(backwards) {
			return workload.Request{}, false
		}
		i++
		return backwards[i-1], true
	})
	if err == nil {
		t.Error("out-of-order arrivals should fail")
	}

	// A non-finite arrival is rejected by all three entry points, wherever
	// it sits in the stream.
	for _, tc := range []struct {
		name string
		at   int
		val  float64
	}{
		{"NaN", 5, math.NaN()},
		{"+Inf", 11, math.Inf(1)},
		{"-Inf", 0, math.Inf(-1)},
	} {
		reqs := workload.GeneralQA().Poisson(12, 40, 3)
		reqs[tc.at].Arrival = units.Seconds(tc.val)
		if _, err := build().Run(reqs); err == nil {
			t.Errorf("Run accepted a %s arrival", tc.name)
		}
		if _, err := build().RunSeq(seqOf(t, reqs)); err == nil {
			t.Errorf("RunSeq accepted a %s arrival", tc.name)
		}
		convs := chatPlan(t, 6, 3)
		convs[tc.at%len(convs)].Arrival = units.Seconds(tc.val)
		if _, err := build().RunPlan(convs); err == nil {
			t.Errorf("RunPlan accepted a %s first-turn arrival", tc.name)
		}
	}
}

// TestConstantMemoryDefaults pins the new retention contract: without opting
// in, a run keeps no per-request records and no realised stream, yet the
// completion count, latency digests, and attainment all still populate from
// the streaming aggregate — bit-identical to the retained run's.
func TestConstantMemoryDefaults(t *testing.T) {
	reqs := tieredStream(t, 64, 17)
	run := func(retain bool) *FleetResult {
		c, err := New(newPAPI, model.LLaMA65B(), Options{
			Replicas:       2,
			MaxBatch:       8,
			Router:         LeastOutstanding(),
			Serving:        serving.DefaultOptions(1),
			RetainRequests: retain,
			RetainStream:   retain,
		})
		if err != nil {
			t.Fatal(err)
		}
		f, err := c.Run(reqs)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	lean, full := run(false), run(true)
	if len(lean.Requests) != 0 || len(lean.Stream) != 0 {
		t.Fatalf("default run retained %d records, %d stream entries", len(lean.Requests), len(lean.Stream))
	}
	if len(full.Requests) != len(reqs) || len(full.Stream) != len(reqs) {
		t.Fatalf("opt-in run retained %d records, %d stream entries, want %d", len(full.Requests), len(full.Stream), len(reqs))
	}
	if lean.Completed != len(reqs) || full.Completed != len(reqs) {
		t.Fatalf("completed %d / %d, want %d", lean.Completed, full.Completed, len(reqs))
	}
	if lean.TTFT != full.TTFT || lean.TPOT != full.TPOT {
		t.Errorf("digests diverged across retention:\n lean %+v %+v\n full %+v %+v", lean.TTFT, lean.TPOT, full.TTFT, full.TPOT)
	}
	slo := workload.SLO{TokenLatency: units.Milliseconds(10)}
	if a, b := lean.Attainment(slo), full.Attainment(slo); a != b {
		t.Errorf("attainment diverged across retention: %v vs %v", a, b)
	}
	for _, class := range []workload.Class{workload.ClassInteractive, workload.ClassBatch} {
		if a, b := lean.AttainmentClass(slo, class), full.AttainmentClass(slo, class); a != b {
			t.Errorf("%v attainment diverged across retention: %v vs %v", class, a, b)
		}
	}
}

// TestVacuousScores pins the zero-request audit: an empty window scores 1
// everywhere (vacuous truth), never 0 and never a 0/0 NaN; failures alone
// drive availability to 0.
func TestVacuousScores(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(5)}
	empty := &FleetResult{Agg: newFleetAggregate()}
	for name, got := range map[string]float64{
		"Attainment":              empty.Attainment(slo),
		"AttainmentUnbounded":     empty.Attainment(workload.SLO{}),
		"AttainmentInteractive":   empty.AttainmentClass(slo, workload.ClassInteractive),
		"AttainmentBatch":         empty.AttainmentClass(slo, workload.ClassBatch),
		"Availability":            empty.Availability(),
		"DesignAttainment":        DesignMetrics{}.Attainment(slo),
		"DesignAttainmentWithAgg": DesignMetrics{agg: newFleetAggregate()}.Attainment(slo),
	} {
		if got != 1 {
			t.Errorf("%s on an empty window = %v, want vacuous 1", name, got)
		}
	}

	// All-failed: nothing completed, so availability and attainment are hard
	// zeros — real misses, not vacuous truths.
	failed := &FleetResult{Agg: newFleetAggregate(), FailedRequests: []FailedRequest{
		{ID: 0, Class: workload.ClassInteractive, Reason: "crash"},
		{ID: 1, Class: workload.ClassBatch, Reason: "timeout"},
	}}
	if got := failed.Availability(); got != 0 {
		t.Errorf("all-failed availability = %v, want 0", got)
	}
	if got := failed.Attainment(slo); got != 0 {
		t.Errorf("all-failed attainment = %v, want 0", got)
	}
	for _, class := range []workload.Class{workload.ClassInteractive, workload.ClassBatch} {
		if got := failed.AttainmentClass(slo, class); got != 0 {
			t.Errorf("all-failed %v attainment = %v, want 0", class, got)
		}
	}
}

// FuzzShardedEquivalence drives random small fleets through the time-order
// reference and the barrier driver at Shards 1 and N — the CI fuzz target
// backing the driver equivalence pin with adversarial shapes, open-loop
// streams and conversation plans alike, including fault-injected ones: a
// randomized crash (replica and instant), a degradation window, and
// per-attempt timeouts, so barrier-scheduled failure events are fuzzed
// against the reference failure trace.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), uint8(2), false, uint8(0), uint8(0), false, false)
	f.Add(int64(7), uint8(40), uint8(3), uint8(4), true, uint8(0), uint8(0), false, false)
	f.Add(int64(23), uint8(8), uint8(1), uint8(3), false, uint8(0), uint8(0), false, false)
	f.Add(int64(31), uint8(48), uint8(3), uint8(4), false, uint8(3), uint8(40), true, false)
	f.Add(int64(11), uint8(32), uint8(2), uint8(2), true, uint8(7), uint8(90), false, false)
	f.Add(int64(5), uint8(24), uint8(2), uint8(2), false, uint8(0), uint8(0), false, true)
	f.Add(int64(13), uint8(40), uint8(3), uint8(3), true, uint8(1), uint8(60), false, true)
	f.Add(int64(17), uint8(32), uint8(3), uint8(4), false, uint8(6), uint8(20), true, true)
	f.Add(int64(19), uint8(20), uint8(2), uint8(2), true, uint8(3), uint8(75), true, true)
	f.Fuzz(func(t *testing.T, seed int64, n, replicas, shards uint8, elastic bool,
		fault, faultAt uint8, timeout, plan bool) {

		nreq := int(n%64) + 1
		reps := int(replicas%4) + 1
		nshards := int(shards%6) + 2
		// fault%4 selects the plan shape: 0 none, 1 crash, 2 crash+straggler,
		// 3 crash+brownout. faultAt places the crash inside the stream's
		// ~[0, 2s] arrival span so it can land before, between, or after
		// most arrivals.
		var faultPlan *faults.Plan
		at := units.Seconds(float64(faultAt%100) / 50)
		switch fault % 4 {
		case 1:
			faultPlan = &faults.Plan{Name: "f1", Faults: []faults.Fault{
				{Kind: faults.KindCrash, Replica: int(fault) % reps, At: float64(at)},
			}}
		case 2:
			faultPlan = &faults.Plan{Name: "f2", Faults: []faults.Fault{
				{Kind: faults.KindStraggler, Replica: int(fault) % reps, At: float64(at), Factor: 3, Duration: 0.5},
				{Kind: faults.KindCrash, Replica: int(fault+1) % reps, At: float64(at) + 0.2},
			}}
		case 3:
			faultPlan = &faults.Plan{Name: "f3", Faults: []faults.Fault{
				{Kind: faults.KindBrownout, At: float64(at), Factor: 2, Duration: 0.6},
				{Kind: faults.KindCrash, Replica: int(fault) % reps, At: float64(at) + 0.3},
			}}
		}
		// A plan holds about nreq turns: chat conversations average 3.5.
		var reqs []workload.Request
		var convs []workload.Conversation
		if plan {
			convs = chatPlan(t, nreq/4+1, seed)
		} else {
			reqs = workload.GeneralQA().Poisson(nreq, 50, seed)
		}
		build := func(s int) *Cluster {
			opt := Options{
				Replicas:       reps,
				MaxBatch:       4,
				Router:         LeastOutstanding(),
				Serving:        serving.DefaultOptions(1),
				Faults:         faultPlan,
				Shards:         s,
				RetainRequests: true,
				RetainStream:   true,
			}
			if faultPlan != nil {
				opt.Retries = 1
				opt.RetryBackoff = units.Seconds(0.05)
			}
			if timeout {
				opt.Timeout = units.Seconds(1.5)
			}
			if elastic {
				opt.Autoscale = DefaultAutoscale(reps, reps+2, workload.SLO{TokenLatency: units.Milliseconds(8)})
			}
			c, err := New(newPAPI, model.OPT30B(), opt)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		matchDrivers(t, fmt.Sprintf("fuzz (seed=%d n=%d replicas=%d shards=%d elastic=%v fault=%d at=%v timeout=%v plan=%v)",
			seed, nreq, reps, nshards, elastic, fault%4, at, timeout, plan), build, reqs, convs, nshards)
	})
}
