package cluster

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/kv"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// referenceDrive is the time-order oracle the barrier driver is pinned
// against, reached through the drive parameter of the run body: it steps
// one replica at a time, one iteration per step, in (instant, replica ID)
// order; kernel events fire first at equal instants; each step writes the
// fleet in place, its power-off included.
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
		// Bookkeeping only: the wake heap tracks the armed set, which the
		// autoscaler's re-arm check reads.
		r.rearm(rep)
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

// routeView is what a Route call shows of one eligible replica: the two
// signals the built-in routers read. Neither syncs a replica the barrier
// driver left behind, so a view taken there is the one a router gets.
type routeView struct {
	ID, Outstanding int
	Headroom        units.Bytes
}

// routeLog wraps a cluster's router and records the view of every eligible
// replica at each Route call.
type routeLog struct {
	Router
	seen [][]routeView
}

func (l *routeLog) Route(req workload.Request, reps []*Replica) int {
	row := make([]routeView, len(reps))
	for i, rep := range reps {
		row[i] = routeView{rep.ID, rep.Outstanding(), rep.KVHeadroom()}
	}
	l.seen = append(l.seen, row)
	return l.Router.Route(req, reps)
}

// matchDrivers runs one fleet under the time-order reference and under the
// barrier driver — through Run or RunPlan — and fails unless the results
// deep-equal and every Route call showed the router the same replicas with
// the same signals. build must return a fresh cluster, with a fresh router,
// on every call: routers keep per-run state. It returns the reference
// result.
func matchDrivers(t *testing.T, label string, build func() *Cluster,
	reqs []workload.Request, convs []workload.Conversation) *FleetResult {
	t.Helper()
	logged := func() (*Cluster, *routeLog) {
		c := build()
		log := &routeLog{Router: c.opt.Router}
		c.opt.Router = log
		return c, log
	}
	ref, wantLog := logged()
	want, err := runDriven(ref, reqs, convs, referenceDrive)
	if err != nil {
		t.Fatal(err)
	}
	c, gotLog := logged()
	var got *FleetResult
	if convs != nil {
		got, err = c.RunPlan(convs)
	} else {
		got, err = c.Run(reqs)
	}
	if err != nil {
		t.Fatal(err)
	}
	diffFleet(t, label, want, got)
	w, g := wantLog.seen, gotLog.seen
	for i := range max(len(w), len(g)) {
		if i == len(w) || i == len(g) {
			t.Errorf("%s: the router was called %d times, %d under the reference", label, len(g), len(w))
			break
		}
		if !reflect.DeepEqual(w[i], g[i]) {
			t.Errorf("%s: Route call %d diverged:\n want: %+v\n got:  %+v", label, i, w[i], g[i])
			break
		}
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
// driver is bit-identical to the time-order reference, which runs every replica one iteration per step — every
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
			build := func() *Cluster {
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
					RetainRequests: true,
					RetainStream:   true,
				})
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			if tc.convs != nil {
				matchDrivers(t, tc.name, build, nil, tc.convs(t))
				return
			}
			matchDrivers(t, tc.name, build, tieredStream(t, 96, 23), nil)
		})
	}
}

// TestShardedMixedFleetMatchesSerial extends the equivalence pin to a mixed
// PAPI+baseline fleet, whose per-design split merges the replica aggregates.
func TestShardedMixedFleetMatchesSerial(t *testing.T) {
	build := func() *Cluster {
		cl, err := NewFromSpecs(mixedSpecs(t), model.OPT30B(), Options{
			Replicas:       4,
			MaxBatch:       6,
			Router:         LeastOutstanding(),
			Serving:        serving.DefaultOptions(1),
			RetainRequests: true,
			RetainStream:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	matchDrivers(t, "mixed", build, tieredStream(t, 64, 41), nil)
	matchDrivers(t, "mixed plan", build, nil, chatPlan(t, 16, 41))
}

// clockRouter is a custom router that reads Replica.Now: each request goes
// to the least-outstanding replica, ties to the earliest engine clock, then
// to the lowest ID. It reads every eligible replica's clock on every call,
// so the barrier driver must step each replica it left behind up to the
// arrival before the router sees it.
type clockRouter struct{}

func (clockRouter) Name() string { return "clock" }

func (clockRouter) Route(_ workload.Request, reps []*Replica) int {
	best, bestNow := 0, reps[0].Now()
	for i, rep := range reps[1:] {
		now := rep.Now()
		if o, bo := rep.Outstanding(), reps[best].Outstanding(); o < bo || o == bo && now < bestNow {
			best, bestNow = i+1, now
		}
	}
	return best
}

// TestShardedClockRouterMatchesSerial pins the driver equivalence claim for
// a router outside the built-in set that reads the replicas' clocks, on
// static and elastic fleets, open-loop and closed-loop, at TLP 1 and 4, and
// under a fault plan with timeouts.
func TestShardedClockRouterMatchesSerial(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(8)}
	windowPlan := &faults.Plan{Name: "windows", Faults: []faults.Fault{
		{Kind: faults.KindStraggler, Replica: 1, At: 0.3, Factor: 2.5, Duration: 0.6},
		{Kind: faults.KindBrownout, At: 0.7, Factor: 1.8, Duration: 0.4},
		{Kind: faults.KindCrash, Replica: 2, At: 1.1},
	}}
	for _, tc := range []struct {
		name      string
		tlp       int
		autoscale *AutoscaleOptions
		plan      *faults.Plan
		convs     bool
	}{
		{"static", 1, nil, nil, false},
		{"autoscaled/tlp4", 4, DefaultAutoscale(1, 4, slo), nil, false},
		{"plan", 1, nil, nil, true},
		{"faults-timeout", 1, nil, windowPlan, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Cluster {
				opt := Options{
					Replicas:       3,
					MaxBatch:       6,
					Router:         clockRouter{},
					Serving:        serving.DefaultOptions(tc.tlp),
					Autoscale:      tc.autoscale,
					RetainRequests: true,
					RetainStream:   true,
				}
				if tc.autoscale != nil {
					opt.Replicas = tc.autoscale.Min
				}
				if tc.plan != nil {
					opt.Faults, opt.Retries, opt.Timeout = tc.plan, 1, units.Seconds(2)
					opt.RetryBackoff = units.Seconds(0.05)
				}
				cl, err := NewByName("PAPI", model.OPT30B(), opt)
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			if tc.convs {
				matchDrivers(t, tc.name, build, nil, chatPlan(t, 16, 23))
				return
			}
			ref := matchDrivers(t, tc.name, build, tieredStream(t, 96, 23), nil)
			if tc.plan != nil && ref.Faults == 0 {
				t.Fatal("fault plan never fired: the equivalence pin is vacuous")
			}
		})
	}
}

// clockLog routes request i to replica i mod n and records every eligible
// replica's clock as each call sees it.
type clockLog struct{ seen [][]units.Seconds }

func (*clockLog) Name() string { return "clock-log" }

func (l *clockLog) Route(req workload.Request, reps []*Replica) int {
	row := make([]units.Seconds, len(reps))
	for i, rep := range reps {
		row[i] = rep.Now()
	}
	l.seen = append(l.seen, row)
	return req.ID % len(reps)
}

// TestBurstRouterSeesPrePushClock pins what a router reading Replica.Now
// sees inside a same-instant burst: a push arms an idle replica at the
// burst instant but leaves its clock where its last step put it, so the
// next call still reads the pre-push clock. Both drivers share the push, so
// matchDrivers cannot see a change here; this test can.
func TestBurstRouterSeesPrePushClock(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, InputLen: 64, OutputLen: 4, Arrival: 0},
		{ID: 2, InputLen: 64, OutputLen: 4, Arrival: 0.5},
		{ID: 3, InputLen: 64, OutputLen: 4, Arrival: 0.5},
		{ID: 4, InputLen: 64, OutputLen: 4, Arrival: 0.5},
	}
	log := &clockLog{}
	cl, err := NewByName("PAPI", model.OPT30B(), Options{
		Replicas: 2,
		MaxBatch: 6,
		Router:   log,
		Serving:  serving.DefaultOptions(1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(reqs); err != nil {
		t.Fatal(err)
	}
	if len(log.seen) != len(reqs) {
		t.Fatalf("router called %d times, want %d", len(log.seen), len(reqs))
	}
	// Replica 0 served request 0 and idles at its clock until the burst.
	idle := log.seen[1][0]
	if idle <= 0 || idle >= 0.5 {
		t.Fatalf("replica 0 reads %v at the burst, want its idle clock in (0, 0.5)", idle)
	}
	// Request 2 went to replica 0 and request 3 to replica 1; neither push
	// moved the clock the next call reads.
	if got := log.seen[2][0]; got != idle {
		t.Errorf("after a push replica 0 reads %v, want its pre-push clock %v", got, idle)
	}
	if got := log.seen[3]; got[0] != idle || got[1] != 0 {
		t.Errorf("after two pushes the replicas read %v, want [%v 0]", got, idle)
	}
}

// pinRouter sends the requests it names to fixed replicas and routes the
// rest least-outstanding.
type pinRouter map[int]int

func (pinRouter) Name() string { return "pin" }

func (p pinRouter) Route(req workload.Request, reps []*Replica) int {
	if i, ok := p[req.ID]; ok {
		return i
	}
	return LeastOutstanding().Route(req, reps)
}

// TestShardedCancelFreesSlotMatchesSerial pins the one way a stepper's
// quiet bound can move earlier without a push: a timeout cancels an active
// request of a full batch, the queued request that takes its slot finishes
// in its first iteration, and a later arrival must see that completion in
// the replica's outstanding count, which decides where it is routed. The
// driver must re-key the replica after the cancellation.
func TestShardedCancelFreesSlotMatchesSerial(t *testing.T) {
	reqs := []workload.Request{
		{ID: 0, InputLen: 64, OutputLen: 500, Arrival: 0},    // times out at 0.1
		{ID: 1, InputLen: 64, OutputLen: 500, Arrival: 0.05}, // fills the batch
		{ID: 2, InputLen: 64, OutputLen: 1, Arrival: 0.06},   // queued; takes the freed slot
		{ID: 3, InputLen: 64, OutputLen: 500, Arrival: 0.09}, // replica 1's load
		{ID: 4, InputLen: 64, OutputLen: 8, Arrival: 0.12},   // routed on the two loads
	}
	build := func() *Cluster {
		cl, err := NewByName("PAPI", model.OPT30B(), Options{
			Replicas:       2,
			MaxBatch:       2,
			Router:         pinRouter{0: 0, 1: 0, 2: 0, 3: 1},
			Serving:        serving.DefaultOptions(1),
			Timeout:        units.Seconds(0.1),
			RetainRequests: true,
			RetainStream:   true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	ref := matchDrivers(t, "cancel-frees-slot", build, reqs, nil)
	// Request 2's completion ties the loads, so request 4 goes to replica 0;
	// otherwise the scenario does not exercise the re-key.
	if want := []int{4, 1}; !reflect.DeepEqual(ref.Routed, want) {
		t.Fatalf("reference routed %v, want %v: the freed slot no longer decides the routing", ref.Routed, want)
	}
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
			build := func() *Cluster {
				cl, err := New(newPAPI, model.LLaMA65B(), Options{
					Replicas:       3,
					MaxBatch:       8,
					Router:         LeastOutstanding(),
					Serving:        serving.DefaultOptions(tc.tlp),
					Faults:         tc.plan,
					Retries:        1,
					Timeout:        tc.timeout,
					RetryBackoff:   units.Seconds(0.05),
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
			ref := matchDrivers(t, tc.name, build, reqs, convs)
			if tc.plan != nil && ref.Faults == 0 {
				t.Fatalf("fault plan never fired: the equivalence pin is vacuous")
			}
			if ref.Faults+ref.Retries == 0 {
				t.Fatalf("no fault fired and nothing retried: the equivalence pin is vacuous")
			}
		})
	}
}

// sharingKV is the block-KV sharing configuration the chat-kv regime
// runs: 16-token blocks, prefix sharing on.
func sharingKV() *kv.Options { return &kv.Options{BlockTokens: 16, Sharing: true} }

// sharePrefixes deals half of an open-loop stream, in place, into three
// groups that share a document prefix, and returns the stream.
func sharePrefixes(reqs []workload.Request, seed int64) []workload.Request {
	doc := workload.LengthDist{Median: 96, Sigma: 0.4, Min: 32, Max: 256}
	return workload.AssignPrefixGroups(reqs, 3, doc, 0.5, seed)
}

// sharedTokens sums the prefix tokens the fleet's replicas adopted.
func sharedTokens(f *FleetResult) int {
	n := 0
	for _, rep := range f.Replicas {
		if rep.KV != nil {
			n += rep.KV.SharedTokens
		}
	}
	return n
}

// TestShardedSharingMatchesSerial extends the equivalence pin to block-KV
// sharing fleets, where a push into a block-store replica syncs it first
// and closed-loop follow-ups adopt their carried context.
// Open-loop streams with shared prefixes and conversation plans run under
// every built-in router at TLP 1 and 4, and one plan row adds a crash and
// timeouts. A row whose replicas adopt no prefix tokens would pin nothing,
// so it fails.
//
// The two full-tier rows show why the push syncs. GPT-3 175B on one
// attention device (the kvcache figure's PAPI-1stack) with no cold tier
// keeps the hot tier full, so a decode-time Extend drops idle cached
// blocks. A replica left behind still counts those blocks as resident, and
// a push priced against them would discount the request's KV demand by
// prefix the synced replica no longer holds: the KV-headroom router then
// sees the wrong headroom.
func TestShardedSharingMatchesSerial(t *testing.T) {
	crash := &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 1, At: 2},
	}}
	type row struct {
		name    string
		router  func() Router
		tlp     int
		plan    bool
		faults  *faults.Plan
		timeout units.Seconds
		// fullTier, when non-zero, is the seed of a 120-conversation plan
		// run on the full-tier fleet.
		fullTier int64
	}
	var rows []row
	for _, rt := range []struct {
		name string
		new  func() Router
	}{{"round-robin", RoundRobin}, {"least-outstanding", LeastOutstanding}, {"kv-headroom", KVHeadroom}} {
		for _, tlp := range []int{1, 4} {
			for _, plan := range []bool{false, true} {
				kind := "open"
				if plan {
					kind = "plan"
				}
				rows = append(rows, row{name: fmt.Sprintf("%s/%s/tlp%d", kind, rt.name, tlp), router: rt.new, tlp: tlp, plan: plan})
			}
		}
	}
	rows = append(rows, row{name: "plan/crash-timeout", router: LeastOutstanding, tlp: 1, plan: true,
		faults: crash, timeout: units.Seconds(1.5)})
	for _, seed := range []int64{1, 3} {
		rows = append(rows, row{name: fmt.Sprintf("plan/full-tier/seed%d", seed), router: KVHeadroom, tlp: 1,
			plan: true, fullTier: seed})
	}
	oneStack := design.PAPI(0)
	oneStack.AttnPIM = design.HBMPIMPool(1)
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			build := func() *Cluster {
				opt := testOptions(3, tc.router())
				opt.Serving = serving.DefaultOptions(tc.tlp)
				opt.Serving.KV = sharingKV()
				if tc.faults != nil {
					opt.Faults, opt.Retries, opt.RetryBackoff = tc.faults, 1, units.Seconds(0.05)
				}
				opt.Timeout = tc.timeout
				newSys, cfg := newPAPI, model.LLaMA65B()
				if tc.fullTier != 0 {
					opt.MaxBatch = 4
					opt.Serving.KV = &kv.Options{BlockTokens: 8, Sharing: true, ColdFactor: -1}
					newSys = func() *design.System { return design.MustBuild(oneStack) }
					cfg = model.GPT3_175B()
				}
				cl, err := New(newSys, cfg, opt)
				if err != nil {
					t.Fatal(err)
				}
				return cl
			}
			var ref *FleetResult
			switch {
			case tc.fullTier != 0:
				ref = matchDrivers(t, tc.name, build, nil, chatPlan(t, 120, tc.fullTier))
			case tc.plan:
				ref = matchDrivers(t, tc.name, build, nil, chatPlan(t, 12, 43))
			default:
				ref = matchDrivers(t, tc.name, build, sharePrefixes(workload.GeneralQA().Poisson(48, 40, 43), 44), nil)
			}
			if sharedTokens(ref) == 0 {
				t.Fatal("no replica adopted a shared prefix: the sharing pin is vacuous")
			}
			if tc.faults != nil && (ref.Faults == 0 || ref.Retries == 0) {
				t.Fatalf("%d faults, %d retries: the crash row is vacuous", ref.Faults, ref.Retries)
			}
			if tc.fullTier != 0 && evictedBlocks(ref) == 0 {
				t.Fatal("no replica evicted a block: the hot tier never filled")
			}
		})
	}
}

// evictedBlocks sums the blocks the fleet's replicas dropped from their
// block stores.
func evictedBlocks(f *FleetResult) int {
	n := 0
	for _, rep := range f.Replicas {
		if rep.KV != nil {
			n += rep.KV.EvictedBlocks
		}
	}
	return n
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
// Run over a rotated copy of it bit for bit, which pins Run's stable sort,
// and Run over the ordered stream itself, which Run reads in place. Run
// must leave its argument unchanged either way. The burst stream packs six
// arrivals onto each of three instants: every arrival of a burst must route
// before any replica step at that instant, and in stream order, under both
// routers. The tail-burst stream ends on a burst, after which the source
// must not be pulled again.
func TestRunSeqMatchesRun(t *testing.T) {
	burst := workload.GeneralQA().Poisson(48, 40, 3)
	for i := 0; i < 18; i++ {
		burst[i].Arrival = units.Seconds(0.25 * float64(i/6))
	}
	tail := workload.GeneralQA().Poisson(16, 40, 5)
	for i := 12; i < len(tail); i++ {
		tail[i].Arrival = tail[11].Arrival
	}
	tiered := tieredStream(t, 96, 29)
	for _, tc := range []struct {
		name    string
		reqs    []workload.Request
		router  func() Router
		ordered bool // Run gets reqs itself, not a rotated copy
	}{
		{"tiered", tiered, LeastOutstanding, false},
		{"tiered/ordered", tiered, LeastOutstanding, true},
		{"burst/round-robin", burst, RoundRobin, false},
		{"burst/least-outstanding", burst, LeastOutstanding, false},
		{"burst/ordered", burst, LeastOutstanding, true},
		{"tail-burst", tail, RoundRobin, false},
		{"tail-burst/ordered", tail, RoundRobin, true},
	} {
		build := func() *Cluster {
			c, err := New(newPAPI, model.LLaMA65B(), testOptions(3, tc.router()))
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		in := tc.reqs
		if !tc.ordered {
			in = rotate(t, tc.reqs)
		}
		before := slices.Clone(in)
		want, err := build().Run(in)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(in, before) {
			t.Errorf("%s: Run wrote its argument", tc.name)
		}
		got, err := build().RunSeq(seqOf(t, tc.reqs))
		if err != nil {
			t.Fatal(err)
		}
		diffFleet(t, tc.name+" runseq", want, got)
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
		{"NaN tail", 11, math.NaN()},
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

// TestConstantMemoryDefaults pins the retention contract: without opting
// in, a run keeps no per-request records, no realised stream and no
// per-iteration trace on any replica, yet the completion count, latency
// digests, attainment, every other field of every replica's Result and the
// printed fleet table all match the retained run's bit for bit (see
// matchRetention). The churn row runs an autoscaled fleet under a crash,
// retries and per-attempt timeouts, so replicas booted mid-run and failed
// over are covered too. The chat row runs a conversation plan with block-KV
// sharing at TLP 4 under timeouts, so the records and leases a
// constant-memory replica reuses, the follow-up turns and the deadlines all
// run against their retained twins.
func TestConstantMemoryDefaults(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(10)}
	crash := &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 1, At: 1.5},
	}}
	chat := serving.DefaultOptions(4)
	chat.KV = sharingKV()
	for _, tc := range []struct {
		name  string
		opt   Options
		reqs  []workload.Request
		convs []workload.Conversation
	}{
		{"static", Options{Replicas: 2, MaxBatch: 8, Serving: serving.DefaultOptions(1)}, tieredStream(t, 64, 17), nil},
		{"churn", Options{Replicas: 2, MaxBatch: 6, Serving: serving.DefaultOptions(1),
			Autoscale: DefaultAutoscale(2, 5, slo),
			Faults:    crash, Retries: 1, RetryBackoff: units.Seconds(0.05), Timeout: units.Seconds(2),
		}, tieredStream(t, 96, 23), nil},
		{"chat", Options{Replicas: 2, MaxBatch: 8, Serving: chat,
			Retries: 1, RetryBackoff: units.Seconds(0.05), Timeout: units.Seconds(0.25),
		}, nil, chatPlan(t, 24, 5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(retain bool) *FleetResult {
				opt := tc.opt
				opt.Router = LeastOutstanding()
				opt.RetainRequests, opt.RetainStream = retain, retain
				c, err := New(newPAPI, model.LLaMA65B(), opt)
				if err != nil {
					t.Fatal(err)
				}
				f, err := runDriven(c, tc.reqs, tc.convs, (*fleetRun).drain)
				if err != nil {
					t.Fatal(err)
				}
				return f
			}
			lean, full := run(false), run(true)
			matchRetention(t, tc.name, slo, lean, full)
			timeouts, abandoned := 0, 0
			for _, fr := range full.FailedRequests {
				switch fr.Reason {
				case "timeout":
					timeouts++
				case "abandoned":
					abandoned++
				}
			}
			// The realised stream holds every arrival at least once, but for
			// the turns a failed turn abandoned; a retry re-enters it, so only
			// the static row pins it exactly (below).
			sent := len(tc.reqs) + workload.TotalTurns(tc.convs)
			if len(full.Stream) < sent-abandoned {
				t.Fatalf("opt-in run retained %d stream entries for %d arrivals, %d abandoned",
					len(full.Stream), sent, abandoned)
			}
			for k, f := range full.Replicas {
				if len(f.RLPTrace) == 0 || len(f.IterStats) == 0 {
					t.Errorf("replica %d recorded no trace with retention", k)
				}
			}
			switch tc.name {
			case "static":
				if full.Completed != sent || len(full.Stream) != sent {
					t.Fatalf("completed %d, retained %d stream entries, want %d of each",
						full.Completed, len(full.Stream), sent)
				}
			case "churn":
				// The churn row must churn: a crash, timeouts, and replicas
				// booted mid-run.
				if full.Faults == 0 || timeouts == 0 || len(full.Replicas) <= tc.opt.Replicas {
					t.Fatalf("%d faults, %d timeouts, %d replicas from %d: the churn row does not churn",
						full.Faults, timeouts, len(full.Replicas), tc.opt.Replicas)
				}
			case "chat":
				// Every turn completes or is accounted failed; turns adopt
				// their carried context, and some attempts time out.
				if full.Completed+len(full.FailedRequests) != sent || sharedTokens(full) == 0 || timeouts == 0 {
					t.Fatalf("%d completed and %d failed of %d turns, %d shared tokens, %d timeouts",
						full.Completed, len(full.FailedRequests), sent, sharedTokens(full), timeouts)
				}
			}
		})
	}
}

// matchRetention fails unless a run without retention (lean) matches the
// same run with it (full) everywhere but the records, the realised stream
// and the per-iteration traces, which lean must not hold.
func matchRetention(t *testing.T, label string, slo workload.SLO, lean, full *FleetResult) {
	t.Helper()
	if len(lean.Requests) != 0 || len(lean.Stream) != 0 {
		t.Fatalf("%s: default run retained %d records, %d stream entries", label, len(lean.Requests), len(lean.Stream))
	}
	if lean.Completed != full.Completed || len(full.Requests) != full.Completed {
		t.Fatalf("%s: completed %d / %d, opt-in run retained %d records",
			label, lean.Completed, full.Completed, len(full.Requests))
	}
	if lean.TTFT != full.TTFT || lean.TPOT != full.TPOT {
		t.Errorf("%s: digests diverged across retention:\n lean %+v %+v\n full %+v %+v", label, lean.TTFT, lean.TPOT, full.TTFT, full.TPOT)
	}
	if a, b := lean.Attainment(slo), full.Attainment(slo); a != b {
		t.Errorf("%s: attainment diverged across retention: %v vs %v", label, a, b)
	}
	for _, class := range []workload.Class{workload.ClassInteractive, workload.ClassBatch} {
		if a, b := lean.AttainmentClass(slo, class), full.AttainmentClass(slo, class); a != b {
			t.Errorf("%s: %v attainment diverged across retention: %v vs %v", label, class, a, b)
		}
	}
	if len(lean.Replicas) != len(full.Replicas) {
		t.Fatalf("%s: %d replicas without retention, %d with", label, len(lean.Replicas), len(full.Replicas))
	}
	for k := range full.Replicas {
		l, f := lean.Replicas[k], full.Replicas[k]
		if cap(l.RLPTrace) != 0 || cap(l.IterStats) != 0 {
			t.Errorf("%s: replica %d holds traces of capacity %d and %d without retention",
				label, k, cap(l.RLPTrace), cap(l.IterStats))
		}
		for _, res := range []*serving.Result{&l, &f} {
			res.Requests, res.RLPTrace, res.IterStats = nil, nil, nil
		}
		if !reflect.DeepEqual(l, f) {
			t.Errorf("%s: replica %d diverged across retention beyond records and traces:\n lean %+v\n full %+v", label, k, l, f)
		}
	}
	if a, b := lean.String(), full.String(); a != b {
		t.Errorf("%s: fleet table diverged across retention:\n lean:\n%s\n full:\n%s", label, a, b)
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
// reference and the barrier driver — the CI fuzz target
// backing the driver equivalence pin with adversarial shapes, open-loop
// streams and conversation plans alike, including fault-injected ones: a
// randomized crash (replica and instant), a degradation window, and
// per-attempt timeouts, so barrier-scheduled failure events are fuzzed
// against the reference failure trace. The sharing axis turns on block-KV
// prefix sharing and, for open-loop streams, deals half the requests into
// shared-prefix groups. Every case also runs without retention, and must
// match the retaining run as TestConstantMemoryDefaults pins it.
func FuzzShardedEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(16), uint8(2), false, uint8(0), uint8(0), false, false, false, false)
	f.Add(int64(7), uint8(40), uint8(3), true, uint8(0), uint8(0), false, false, false, false)
	f.Add(int64(23), uint8(8), uint8(1), false, uint8(0), uint8(0), false, false, false, false)
	f.Add(int64(31), uint8(48), uint8(3), false, uint8(3), uint8(40), true, false, false, false)
	f.Add(int64(11), uint8(32), uint8(2), true, uint8(7), uint8(90), false, false, false, false)
	f.Add(int64(5), uint8(24), uint8(2), false, uint8(0), uint8(0), false, true, false, false)
	f.Add(int64(13), uint8(40), uint8(3), true, uint8(1), uint8(60), false, true, false, false)
	f.Add(int64(17), uint8(32), uint8(3), false, uint8(6), uint8(20), true, true, false, false)
	f.Add(int64(19), uint8(20), uint8(2), true, uint8(3), uint8(75), true, true, false, false)
	f.Add(int64(29), uint8(40), uint8(3), false, uint8(0), uint8(0), false, false, true, false)
	f.Add(int64(37), uint8(48), uint8(3), true, uint8(3), uint8(40), true, false, true, false)
	f.Add(int64(41), uint8(32), uint8(2), false, uint8(2), uint8(30), true, true, true, false)
	f.Add(int64(43), uint8(48), uint8(3), false, uint8(0), uint8(0), false, false, false, true)
	f.Add(int64(47), uint8(40), uint8(3), true, uint8(0), uint8(0), false, true, false, true)
	f.Add(int64(53), uint8(32), uint8(3), false, uint8(1), uint8(50), true, true, false, true)
	f.Add(int64(59), uint8(40), uint8(2), true, uint8(3), uint8(40), true, false, true, true)
	f.Fuzz(func(t *testing.T, seed int64, n, replicas uint8, elastic bool,
		fault, faultAt uint8, timeout, plan, clock, sharing bool) {

		nreq := int(n%64) + 1
		reps := int(replicas%4) + 1
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
			if sharing {
				reqs = sharePrefixes(reqs, seed+1)
			}
		}
		build := func() *Cluster {
			opt := Options{
				Replicas:       reps,
				MaxBatch:       4,
				Router:         LeastOutstanding(),
				Serving:        serving.DefaultOptions(1),
				Faults:         faultPlan,
				RetainRequests: true,
				RetainStream:   true,
			}
			if clock {
				opt.Router = clockRouter{}
			}
			if sharing {
				opt.Serving.KV = sharingKV()
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
		label := fmt.Sprintf("fuzz (seed=%d n=%d replicas=%d elastic=%v fault=%d at=%v timeout=%v plan=%v clock=%v sharing=%v)",
			seed, nreq, reps, elastic, fault%4, at, timeout, plan, clock, sharing)
		full := matchDrivers(t, label, build, reqs, convs)
		// The same fleet in the constant-memory default, which reuses its
		// completed records and leases, must match the retaining run.
		c := build()
		c.opt.RetainRequests, c.opt.RetainStream = false, false
		lean, err := runDriven(c, reqs, convs, (*fleetRun).drain)
		if err != nil {
			t.Fatal(err)
		}
		matchRetention(t, label, workload.SLO{TokenLatency: units.Milliseconds(8)}, lean, full)
	})
}
