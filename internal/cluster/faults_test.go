package cluster

import (
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/faults"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

func mustRunOpts(t *testing.T, opt Options, reqs []workload.Request) *FleetResult {
	t.Helper()
	c, err := New(newPAPI, model.LLaMA65B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// auditLedger enforces the terminal-accounting invariant: every injected
// request resolves exactly once — completed or failed, never both, never
// neither.
func auditLedger(t *testing.T, f *FleetResult, want int) {
	t.Helper()
	seen := map[int]string{}
	for _, rm := range f.Requests {
		if prior, dup := seen[rm.ID]; dup {
			t.Fatalf("request %d accounted twice (%s, completed)", rm.ID, prior)
		}
		seen[rm.ID] = "completed"
	}
	for _, fr := range f.FailedRequests {
		if prior, dup := seen[fr.ID]; dup {
			t.Fatalf("request %d accounted twice (%s, failed %q)", fr.ID, prior, fr.Reason)
		}
		seen[fr.ID] = "failed"
	}
	if len(seen) != want {
		t.Fatalf("%d of %d requests terminally accounted", len(seen), want)
	}
}

// A nil plan, an empty plan, and a plan whose every fault misses the fleet
// must all be invisible: the FleetResult is deeply equal to the fault-free
// run.
func TestFaultOffEquivalence(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	run := func(plan *faults.Plan) *FleetResult {
		opt := testOptions(2, LeastOutstanding())
		opt.Faults = plan
		return mustRunOpts(t, opt, reqs)
	}
	base := run(nil)
	for name, plan := range map[string]*faults.Plan{
		"empty": {Name: "quiet"},
		"miss":  {Name: "miss", Faults: []faults.Fault{{Kind: faults.KindStraggler, Replica: 99, At: 0.1, Duration: 1, Factor: 3}}},
	} {
		if got := run(plan); !reflect.DeepEqual(base, got) {
			t.Fatalf("%s plan perturbed the fault-free result", name)
		}
	}
}

// A mid-run crash fails over the dead replica's outstanding requests to the
// survivor: with retry budget, every request still completes, the grown
// contexts are re-prefilled, and the dead replica's clock stays frozen at
// the failure instant.
func TestCrashFailover(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	opt := testOptions(2, LeastOutstanding())
	opt.Faults = &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 0, At: 0.8},
	}}
	opt.Retries = 2
	opt.RetryBackoff = units.Milliseconds(50)
	f := mustRunOpts(t, opt, reqs)
	auditLedger(t, f, len(reqs))
	if len(f.FailedRequests) != 0 {
		t.Fatalf("with retry budget no request should fail, got %d: %+v", len(f.FailedRequests), f.FailedRequests[0])
	}
	if f.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", f.Faults)
	}
	if f.Retries == 0 {
		t.Fatal("crash with outstanding work produced no retries")
	}
	if f.FailoverReprefillTokens == 0 {
		t.Fatal("failover re-prefilled nothing")
	}
	if got := f.Availability(); got != 1 {
		t.Fatalf("Availability = %v, want 1", got)
	}
	// The survivor served everything injected after the crash.
	if f.Routed[1] <= f.Routed[0] {
		t.Fatalf("survivor routed %d ≤ dead replica's %d", f.Routed[1], f.Routed[0])
	}
	// Determinism: the same plan replays the identical failure trace.
	g := mustRunOpts(t, opt, reqs)
	if !reflect.DeepEqual(f, g) {
		t.Fatal("crash failover run is not deterministic")
	}
}

// The same faulted run must be bit-identical between free-running decode
// windows and the time-order reference driver's one-iteration steps: fault
// edges are kernel events, and no window crosses a kernel event. The
// straggler window still covers the survivor when the crash's casualties
// fail over to it.
func TestCrashFailoverFastMatchesReference(t *testing.T) {
	build := func() *Cluster {
		opt := testOptions(2, LeastOutstanding())
		opt.Faults = &faults.Plan{Name: "mix", Faults: []faults.Fault{
			{Kind: faults.KindStraggler, Replica: 1, At: 0.2, Duration: 0.5, Factor: 2.5},
			{Kind: faults.KindCrash, Replica: 0, At: 0.8},
		}}
		opt.Retries = 2
		opt.RetryBackoff = units.Milliseconds(50)
		c, err := New(newPAPI, model.LLaMA65B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ref := matchDrivers(t, "straggler+crash", build, workload.GeneralQA().Poisson(32, 60, 5), nil)
	if ref.Faults == 0 || ref.Retries == 0 {
		t.Fatalf("faults %d, retries %d: the crash never failed over — the pin is vacuous", ref.Faults, ref.Retries)
	}
}

// With no retry budget, a crash's casualties terminally fail — and they must
// stay in every metric denominator as misses rather than silently vanish.
func TestCrashNoRetriesDenominator(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	opt := testOptions(2, LeastOutstanding())
	opt.Faults = &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 0, At: 0.8},
	}}
	f := mustRunOpts(t, opt, reqs)
	auditLedger(t, f, len(reqs))
	if len(f.FailedRequests) == 0 {
		t.Fatal("crash with zero retries failed nothing")
	}
	for _, fr := range f.FailedRequests {
		if fr.Reason != "crash" || fr.Attempts != 1 {
			t.Fatalf("unexpected failure record %+v", fr)
		}
	}
	// Regression pin (the pre-resilience bug): under an SLO so generous that
	// every *completed* request meets it, attainment must still be
	// completed/injected — failed requests are misses, not no-shows.
	generous := workload.SLO{TokenLatency: units.Seconds(1e6)}
	wantAtt := float64(len(f.Requests)) / float64(len(reqs))
	if got := f.Attainment(generous); got != wantAtt {
		t.Fatalf("Attainment = %v, want %v (failed requests must stay in the denominator)", got, wantAtt)
	}
	if wantAtt >= 1 {
		t.Fatal("test lost its teeth: no failed requests in the denominator")
	}
	if got, want := f.Availability(), wantAtt; got != want {
		t.Fatalf("Availability = %v, want %v", got, want)
	}
	// Per-class attainment counts the class's failures the same way.
	nInt, failedInt := 0, 0
	for _, r := range reqs {
		if r.Class == workload.ClassInteractive {
			nInt++
		}
	}
	for _, fr := range f.FailedRequests {
		if fr.Class == workload.ClassInteractive {
			failedInt++
		}
	}
	wantClass := float64(nInt-failedInt) / float64(nInt)
	if got := f.AttainmentClass(generous, workload.ClassInteractive); got != wantClass {
		t.Fatalf("AttainmentClass = %v, want %v", got, wantClass)
	}
	// Goodput discounts the generation sunk on the dead replica.
	if f.LostTokens == 0 {
		t.Fatal("crash sank no tokens")
	}
	wantTPS := float64(f.Tokens-f.LostTokens) / f.Makespan.Seconds()
	if got := f.TokensPerSecond(); got != wantTPS {
		t.Fatalf("TokensPerSecond = %v, want goodput %v", got, wantTPS)
	}
}

// A per-attempt timeout cancels a stuck request and retries it under the
// same bounded budget; exhausting the budget terminally fails it with the
// timeout reason.
func TestTimeoutRetry(t *testing.T) {
	// One overloaded replica: mean completion ≈ 1.5 s, so a 1 s timeout
	// bites the queue's tail.
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	opt := testOptions(1, RoundRobin())
	opt.Timeout = units.Seconds(1)
	opt.Retries = 1
	opt.RetryBackoff = units.Milliseconds(20)
	f := mustRunOpts(t, opt, reqs)
	auditLedger(t, f, len(reqs))
	if f.Retries == 0 {
		t.Fatal("a 1s timeout against a 1.5s mean completion retried nothing")
	}
	if len(f.FailedRequests) == 0 {
		t.Fatal("expected some requests to exhaust the single retry")
	}
	for _, fr := range f.FailedRequests {
		if fr.Reason != "timeout" || fr.Attempts != 2 {
			t.Fatalf("unexpected failure record %+v", fr)
		}
	}
	g := mustRunOpts(t, opt, reqs)
	if !reflect.DeepEqual(f, g) {
		t.Fatal("timeout-retry run is not deterministic")
	}
}

// A straggler window slows its replica — and only its replica — for its
// duration: the run stretches versus the fault-free baseline, and the
// window's effect replays deterministically.
func TestStragglerSlowsReplica(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	base := mustRunOpts(t, testOptions(2, LeastOutstanding()), reqs)
	opt := testOptions(2, LeastOutstanding())
	opt.Faults = &faults.Plan{Name: "slow", Faults: []faults.Fault{
		{Kind: faults.KindStraggler, Replica: 0, At: 0.1, Duration: 2, Factor: 3},
	}}
	f := mustRunOpts(t, opt, reqs)
	auditLedger(t, f, len(reqs))
	if len(f.FailedRequests) != 0 {
		t.Fatalf("a straggler window failed %d requests", len(f.FailedRequests))
	}
	if f.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", f.Faults)
	}
	if f.Replicas[0].DecodeTime <= base.Replicas[0].DecodeTime {
		t.Fatalf("straggler decode %v not slower than baseline %v",
			f.Replicas[0].DecodeTime, base.Replicas[0].DecodeTime)
	}
	if f.TPOT.P99 <= base.TPOT.P99 {
		t.Fatalf("straggler TPOT p99 %v not above baseline %v", f.TPOT.P99, base.TPOT.P99)
	}
}

// A brownout parks batch-class arrivals for its duration (interactive
// traffic keeps the thinned bandwidth) and releases them when the window
// lifts: nothing is lost, and the shed count is visible.
func TestBrownoutShedsBatchArrivals(t *testing.T) {
	reqs := workload.AssignClasses(workload.GeneralQA().Poisson(32, 60, 5), 0.5, 3)
	opt := testOptions(2, LeastOutstanding())
	opt.Faults = &faults.Plan{Name: "brownout", Faults: []faults.Fault{
		{Kind: faults.KindBrownout, At: 0.1, Duration: 0.25, Factor: 2},
	}}
	f := mustRunOpts(t, opt, reqs)
	auditLedger(t, f, len(reqs))
	if f.ShedArrivals == 0 {
		t.Fatal("a brownout across the arrival burst shed nothing")
	}
	if len(f.FailedRequests) != 0 {
		t.Fatalf("parked arrivals must not fail, got %d failures", len(f.FailedRequests))
	}
	if len(f.Stream) != len(reqs) {
		t.Fatalf("realised stream holds %d of %d arrivals", len(f.Stream), len(reqs))
	}
	// Parked batch arrivals cannot start before the window lifts.
	end := units.Seconds(0.35)
	for _, rm := range f.Requests {
		if rm.Class != workload.ClassBatch {
			continue
		}
		for _, req := range reqs {
			if req.ID == rm.ID && req.Arrival >= 0.1 && req.Arrival < end &&
				req.Arrival+rm.TTFT < end {
				t.Fatalf("batch request %d started inside the brownout window", rm.ID)
			}
		}
	}
}

// Property harness: randomized MTBF plans, retry budgets, and timeouts over
// both router and fleet shapes must always keep the terminal-accounting
// ledger exact — every injected request resolves exactly once — and replay
// deterministically.
func TestFaultLedgerProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	reqs := workload.AssignClasses(workload.GeneralQA().Poisson(40, 40, 11), 0.4, 7)
	for seq := 0; seq < 6; seq++ {
		plan, err := faults.GenerateMTBF(faults.MTBFOptions{
			Name:     "mtbf",
			Replicas: 2,
			Horizon:  units.Seconds(2),
			MTBF:     units.Seconds(0.7),
			MTTR:     units.Seconds(0.4),
			Seed:     rng.Int63n(1 << 30),
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := testOptions(2, LeastOutstanding())
		opt.Faults = &plan
		opt.Retries = int(rng.Int63n(3))
		opt.RetryBackoff = units.Milliseconds(float64(rng.Int63n(80)))
		if rng.Int63n(2) == 0 {
			opt.Timeout = units.Seconds(1.5)
		}
		f := mustRunOpts(t, opt, reqs)
		auditLedger(t, f, len(reqs))
		g := mustRunOpts(t, opt, reqs)
		if !reflect.DeepEqual(f, g) {
			t.Fatalf("seq %d: faulted run is not deterministic", seq)
		}
	}
}

// Crashing the replica that holds pinned conversations re-homes them: the
// lost turn retries on a survivor, follow-ups chase the new pin, and every
// turn is still terminally accounted.
func TestConversationFailoverRepins(t *testing.T) {
	convs := chatPlan(t, 12, 42)
	want := workload.TotalTurns(convs)
	opt := testOptions(2, RoundRobin())
	opt.Faults = &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 0, At: 1.5},
	}}
	opt.Retries = 2
	opt.RetryBackoff = units.Milliseconds(50)
	c, err := New(newPAPI, model.LLaMA65B(), opt)
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.RunPlan(convs)
	if err != nil {
		t.Fatal(err)
	}
	auditLedger(t, f, want)
	if len(f.FailedRequests) != 0 {
		t.Fatalf("with retry budget no turn should fail, got %+v", f.FailedRequests)
	}
	if f.Repins == 0 {
		t.Fatal("crashing a replica with pinned conversations re-pinned nothing")
	}
}

// TestRunPlanAbandonsFailedConversation: a turn that fails for good — lost
// to a crash or a timeout with no retries left — abandons its
// conversation's later turns, each accounted exactly once as failed
// ("abandoned", never attempted, at the failure instant), and the
// conversation releases its hold on its replica.
func TestRunPlanAbandonsFailedConversation(t *testing.T) {
	convs := []workload.Conversation{{ID: 0, Turns: []workload.Turn{
		{Input: 64, Output: 400},
		{Input: 16, Output: 8, Think: units.Seconds(0.1)},
	}}}
	for _, tc := range []struct {
		name     string
		replicas int
		arm      func(o *Options)
		reason   string
		at       units.Seconds
	}{
		{"crash", 1, func(o *Options) {
			o.Faults = &faults.Plan{Name: "crash", Faults: []faults.Fault{{Kind: faults.KindCrash, Replica: 0, At: 0.5}}}
		}, "crash", 0.5},
		{"timeout", 2, func(o *Options) { o.Timeout = units.Seconds(0.2) }, "timeout", 0.2},
	} {
		opt := testOptions(tc.replicas, RoundRobin())
		tc.arm(&opt)
		build := func() *Cluster {
			c, err := New(newPAPI, model.LLaMA65B(), opt)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}
		f, err := build().RunPlan(convs)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		auditLedger(t, f, 2)
		want := []FailedRequest{
			{ID: 0, Attempts: 1, Reason: tc.reason, At: tc.at},
			{ID: 1, Attempts: 0, Reason: "abandoned", At: tc.at},
		}
		if !reflect.DeepEqual(f.FailedRequests, want) {
			t.Errorf("%s: failed requests %+v, want %+v", tc.name, f.FailedRequests, want)
		}
		// The hold is released during the run, not only at its end.
		if _, err := runDriven(build(), nil, convs, func(r *fleetRun) {
			r.drain()
			for _, rep := range r.reps {
				if rep.holds != 0 {
					t.Errorf("%s: replica %d still holds %d conversations", tc.name, rep.ID, rep.holds)
				}
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
}

// Crash-during-drain: the autoscaler is mid-drain on one replica when
// another crashes. The drained replica still completes its in-flight work,
// the crash's casualties fail over, and — with headroom freed by the dead
// replica — the autoscaler may boot a replacement. The ledger stays exact
// through the interaction.
func TestCrashDuringDrainAndReplacement(t *testing.T) {
	// Front-loaded burst then silence: the autoscaler drains into the quiet
	// tail, and the crash lands mid-drain.
	burst := workload.GeneralQA().Poisson(64, 80, 9)
	slo := workload.SLO{TokenLatency: units.Milliseconds(12)}
	opt := testOptions(3, LeastOutstanding())
	opt.Autoscale = &AutoscaleOptions{
		Min: 1, Max: 4, Interval: units.Seconds(0.25),
		WarmUp: units.Seconds(0.5), CoolDown: units.Seconds(0.25),
		SLO: slo, UpTPOTFactor: 0.75, UpQueue: 4, UpArrivalRate: 1e9, DownQueue: 1,
	}
	opt.Faults = &faults.Plan{Name: "mid-drain", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 1, At: 1.4},
	}}
	opt.Retries = 2
	opt.RetryBackoff = units.Milliseconds(50)
	f := mustRunOpts(t, opt, burst)
	auditLedger(t, f, len(burst))
	if f.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", f.Faults)
	}
	g := mustRunOpts(t, opt, burst)
	if !reflect.DeepEqual(f, g) {
		t.Fatal("crash-during-drain run is not deterministic")
	}
}

// Crash-during-warm-up: a replica booted by ScaleUp crashes before its
// live instant. It must stay dead — its activation event is skipped, so it
// never rejoins the eligible set and no arrival is routed into its failed
// stepper — and the ledger stays exact, and a rerun replays it.
func TestCrashDuringWarmUp(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(400, 80, 9)
	slo := workload.SLO{TokenLatency: units.Milliseconds(12)}
	run := func() *FleetResult {
		opt := testOptions(1, LeastOutstanding())
		opt.Autoscale = &AutoscaleOptions{
			Min: 1, Max: 4, Interval: units.Seconds(0.25),
			WarmUp: units.Seconds(0.5), CoolDown: units.Seconds(0.25),
			SLO: slo, UpTPOTFactor: 0.75, UpQueue: 4, UpArrivalRate: 1e9, DownQueue: 1,
		}
		// ScaleUp boots replica 1 at 250 ms; it would go live at 750 ms.
		opt.Faults = &faults.Plan{Name: "warm-up crash", Faults: []faults.Fault{
			{Kind: faults.KindCrash, Replica: 1, At: 0.5},
		}}
		opt.Retries = 2
		return mustRunOpts(t, opt, reqs)
	}
	f := run()
	auditLedger(t, f, len(reqs))
	if f.Faults != 1 {
		t.Fatalf("Faults = %d, want 1", f.Faults)
	}
	if f.Routed[1] != 0 {
		t.Fatalf("replica 1 crashed while warming but was routed %d requests", f.Routed[1])
	}
	booted := false
	for _, ev := range f.ScaleEvents {
		switch {
		case ev.Action == ScaleUp && ev.Replica == 1:
			booted = ev.At < 0.5
		case ev.Action == ScaleLive && ev.Replica == 1:
			t.Fatalf("replica 1 crashed while warming but went live at %v", ev.At)
		}
	}
	if !booted {
		t.Fatal("replica 1 was not booted before the crash — the pin is vacuous")
	}
	diffFleet(t, "warm-up crash", f, run())
}

// Options validation rejects malformed resilience settings.
func TestResilienceOptionsValidation(t *testing.T) {
	for name, mutate := range map[string]func(*Options){
		"negative retries": func(o *Options) { o.Retries = -1 },
		"negative backoff": func(o *Options) { o.RetryBackoff = -units.Seconds(1) },
		"negative timeout": func(o *Options) { o.Timeout = -units.Seconds(1) },
		"NaN timeout":      func(o *Options) { o.Timeout = units.Seconds(math.NaN()) },
		"infinite timeout": func(o *Options) { o.Timeout = units.Seconds(math.Inf(1)) },
		"NaN backoff":      func(o *Options) { o.RetryBackoff = units.Seconds(math.NaN()) },
		"infinite backoff": func(o *Options) { o.RetryBackoff = units.Seconds(math.Inf(1)) },
		"invalid plan": func(o *Options) {
			o.Faults = &faults.Plan{Name: "bad", Faults: []faults.Fault{{Kind: "meteor", At: 1}}}
		},
	} {
		opt := testOptions(1, RoundRobin())
		mutate(&opt)
		if _, err := New(newPAPI, model.LLaMA65B(), opt); err == nil {
			t.Errorf("%s: want validation error", name)
		}
	}
}

// outOfRangeRouter chooses one past the last replica: always, or — with
// onRetry — only for a request it has already routed once, so its first bad
// choice is a failover retry's.
type outOfRangeRouter struct {
	onRetry bool
	seen    map[int]bool
}

func (r *outOfRangeRouter) Name() string { return "out-of-range" }

func (r *outOfRangeRouter) Route(req workload.Request, reps []*Replica) int {
	if r.onRetry && !r.seen[req.ID] {
		r.seen[req.ID] = true
		return req.ID % len(reps)
	}
	return len(reps)
}

// A router choosing outside the eligible replicas stops the run with an
// error naming it, whether the bad choice places a fresh arrival or a
// failover retry after a crash.
func TestRunRejectsOutOfRangeRoute(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	crash := &faults.Plan{Name: "crash", Faults: []faults.Fault{
		{Kind: faults.KindCrash, Replica: 0, At: 0.8},
	}}
	for _, tc := range []struct {
		name    string
		onRetry bool
		plan    *faults.Plan
		wantErr bool
	}{
		{"fresh arrival", false, nil, true},
		{"retry after crash", true, crash, true},
		// The retry-only router places every fresh arrival validly, so the
		// crash case fails on its retries alone.
		{"no crash, no retry", true, nil, false},
	} {
		opt := testOptions(2, &outOfRangeRouter{onRetry: tc.onRetry, seen: map[int]bool{}})
		opt.Faults = tc.plan
		opt.Retries = 2
		opt.RetryBackoff = units.Milliseconds(50)
		c, err := New(newPAPI, model.LLaMA65B(), opt)
		if err != nil {
			t.Fatal(err)
		}
		_, err = c.Run(reqs)
		if !tc.wantErr {
			if err != nil {
				t.Errorf("%s: %v", tc.name, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), "router out-of-range") {
			t.Errorf("%s: Run returned %v, want the out-of-range router named", tc.name, err)
		}
	}
}

// TestLedgerReleasesResolvedRequests pins the failover ledger's memory: a
// request's entry leaves it once the request completes or terminally fails,
// so a run with timeouts and faults ends with an empty ledger instead of
// one entry per request it served. The fleet is TestConstantMemoryDefaults'
// churn row: autoscaled, with a crash, retries, timeouts and failures.
func TestLedgerReleasesResolvedRequests(t *testing.T) {
	slo := workload.SLO{TokenLatency: units.Milliseconds(10)}
	c, err := New(newPAPI, model.LLaMA65B(), Options{Replicas: 2, MaxBatch: 6,
		Router: LeastOutstanding(), Serving: serving.DefaultOptions(1),
		Autoscale: DefaultAutoscale(2, 5, slo),
		Faults: &faults.Plan{Name: "crash", Faults: []faults.Fault{
			{Kind: faults.KindCrash, Replica: 1, At: 1.5},
		}},
		Retries: 1, RetryBackoff: units.Seconds(0.05), Timeout: units.Seconds(2),
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := tieredStream(t, 96, 23)
	var run *fleetRun
	f, err := c.run(sortedSource(reqs), nil, func(r *fleetRun) {
		run = r
		r.drain()
	})
	if err != nil {
		t.Fatal(err)
	}
	if f.Completed == 0 || len(f.FailedRequests) == 0 || f.Retries == 0 {
		t.Fatalf("the run completed %d, failed %d and retried %d requests: it must do all three",
			f.Completed, len(f.FailedRequests), f.Retries)
	}
	if n := len(run.resil.track); n != 0 {
		t.Fatalf("the failover ledger holds %d entries after the run, want 0", n)
	}
}
