package cluster

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/design"
	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// newPAPI builds a fresh PAPI system: each replica owns its instance.
func newPAPI() *design.System { return design.MustBuild(design.PAPI(0)) }

func testOptions(replicas int, router Router) Options {
	return Options{
		Replicas: replicas,
		MaxBatch: 8,
		Router:   router,
		Serving:  serving.DefaultOptions(1),
		// Most legacy assertions audit the per-request records and the
		// realised stream, so the shared helper opts into retention; the
		// constant-memory default path has its own tests.
		RetainRequests: true,
		RetainStream:   true,
	}
}

func mustRun(t *testing.T, router Router, replicas int, reqs []workload.Request) *FleetResult {
	t.Helper()
	c, err := New(newPAPI, model.LLaMA65B(), testOptions(replicas, router))
	if err != nil {
		t.Fatal(err)
	}
	f, err := c.Run(reqs)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestClusterDeterministic(t *testing.T) {
	// A fixed seed reproduces the identical fleet trace across ≥ 2 replicas:
	// routing, makespan, token counts, and the latency digests all match.
	reqs := workload.GeneralQA().Poisson(32, 60, 5)
	a := mustRun(t, LeastOutstanding(), 3, reqs)
	b := mustRun(t, LeastOutstanding(), 3, reqs)
	if !reflect.DeepEqual(a.Routed, b.Routed) {
		t.Fatalf("routing diverged: %v vs %v", a.Routed, b.Routed)
	}
	if a.Makespan != b.Makespan || a.Tokens != b.Tokens {
		t.Fatalf("fleet totals diverged: %v/%d vs %v/%d", a.Makespan, a.Tokens, b.Makespan, b.Tokens)
	}
	if a.TTFT != b.TTFT || a.TPOT != b.TPOT {
		t.Fatalf("latency digests diverged:\n%+v %+v\n%+v %+v", a.TTFT, a.TPOT, b.TTFT, b.TPOT)
	}
	if a.Energy.Total() != b.Energy.Total() {
		t.Fatalf("energy diverged: %v vs %v", a.Energy.Total(), b.Energy.Total())
	}
}

func TestAllRoutersCompleteStream(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(24, 80, 9)
	var want int
	for _, r := range reqs {
		want += r.OutputLen
	}
	for _, router := range Routers() {
		f := mustRun(t, router, 2, reqs)
		if f.Tokens != want {
			t.Errorf("%s: fleet tokens = %d, want %d", router.Name(), f.Tokens, want)
		}
		if len(f.Requests) != len(reqs) {
			t.Errorf("%s: metrics for %d of %d requests", router.Name(), len(f.Requests), len(reqs))
		}
		if f.Makespan <= 0 || f.TokensPerSecond() <= 0 {
			t.Errorf("%s: degenerate fleet result: %+v", router.Name(), f)
		}
		routedTotal := 0
		for _, n := range f.Routed {
			routedTotal += n
		}
		if routedTotal != len(reqs) {
			t.Errorf("%s: routed %d of %d requests", router.Name(), routedTotal, len(reqs))
		}
		if f.TTFT.P99 < f.TTFT.P50 || f.TPOT.P99 < f.TPOT.P50 {
			t.Errorf("%s: percentiles not monotone: %+v %+v", router.Name(), f.TTFT, f.TPOT)
		}
	}
}

func TestRoundRobinSpreadsEvenly(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(30, 40, 11)
	f := mustRun(t, RoundRobin(), 3, reqs)
	for i, n := range f.Routed {
		if n != 10 {
			t.Fatalf("replica %d received %d requests, want 10 (routed %v)", i, n, f.Routed)
		}
	}
}

func TestLoadAwareRoutersUseEveryReplica(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(40, 100, 13)
	for _, router := range []Router{LeastOutstanding(), KVHeadroom()} {
		f := mustRun(t, router, 3, reqs)
		for i, n := range f.Routed {
			if n == 0 {
				t.Errorf("%s: replica %d starved (routed %v)", router.Name(), i, f.Routed)
			}
		}
	}
}

func TestSingleReplicaMatchesRunContinuous(t *testing.T) {
	// A 1-replica fleet is exactly one engine running mixed continuous
	// batching: the cluster layer must add no simulation artefacts.
	cfg := model.LLaMA65B()
	reqs := workload.GeneralQA().Poisson(20, 30, 17)

	eng, err := serving.New(newPAPI(), cfg, serving.DefaultOptions(1))
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.RunContinuous(reqs, 8)
	if err != nil {
		t.Fatal(err)
	}

	f := mustRun(t, RoundRobin(), 1, reqs)
	got := f.Replicas[0]
	if got.Tokens != want.Tokens || got.Iterations != want.Iterations || got.DecodeTime != want.DecodeTime {
		t.Fatalf("1-replica fleet diverged from RunContinuous:\n got %d tokens %d iters %v\nwant %d tokens %d iters %v",
			got.Tokens, got.Iterations, got.DecodeTime, want.Tokens, want.Iterations, want.DecodeTime)
	}
	if f.Makespan != want.TotalTime() {
		t.Fatalf("makespan %v != single-engine total %v", f.Makespan, want.TotalTime())
	}
}

func TestClusterAttainment(t *testing.T) {
	reqs := workload.GeneralQA().Poisson(24, 40, 19)
	f := mustRun(t, LeastOutstanding(), 2, reqs)
	if got := f.Attainment(workload.SLO{}); got != 1 {
		t.Fatalf("unbounded SLO attainment = %v, want 1", got)
	}
	if got := f.Attainment(workload.SLO{TokenLatency: units.Nanoseconds(1)}); got != 0 {
		t.Fatalf("impossible SLO attainment = %v, want 0", got)
	}
	if f.String() == "" {
		t.Fatal("empty fleet rendering")
	}
}

func TestClusterValidation(t *testing.T) {
	cfg := model.LLaMA65B()
	sys := newPAPI
	if _, err := New(nil, cfg, testOptions(2, nil)); err == nil {
		t.Error("nil factory should fail")
	}
	if _, err := New(sys, cfg, Options{Replicas: 0, MaxBatch: 8, Serving: serving.DefaultOptions(1)}); err == nil {
		t.Error("zero replicas should fail")
	}
	if _, err := New(sys, cfg, Options{Replicas: 2, MaxBatch: 0, Serving: serving.DefaultOptions(1)}); err == nil {
		t.Error("zero max batch should fail")
	}
	if _, err := NewByName("no-such-design", cfg, testOptions(2, nil)); err == nil {
		t.Error("unknown design should fail")
	}
	// Every autoscale duration and threshold must be finite and ≥ 0: a NaN
	// interval used to hang Run, and the rest were accepted silently. Each
	// error names its field, at construction.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		field string
		edit  func(*AutoscaleOptions)
	}{
		{"Interval", func(a *AutoscaleOptions) { a.Interval = units.Seconds(nan) }},
		{"Interval", func(a *AutoscaleOptions) { a.Interval = units.Seconds(inf) }},
		{"WarmUp", func(a *AutoscaleOptions) { a.WarmUp = units.Seconds(nan) }},
		{"WarmUp", func(a *AutoscaleOptions) { a.WarmUp = units.Seconds(inf) }},
		{"CoolDown", func(a *AutoscaleOptions) { a.CoolDown = units.Seconds(nan) }},
		{"CoolDown", func(a *AutoscaleOptions) { a.CoolDown = -1 }},
		{"SLO.TokenLatency", func(a *AutoscaleOptions) { a.SLO.TokenLatency = units.Seconds(nan) }},
		{"SLO.TokenLatency", func(a *AutoscaleOptions) { a.SLO.TokenLatency = units.Seconds(inf) }},
		{"UpTPOTFactor", func(a *AutoscaleOptions) { a.UpTPOTFactor = nan }},
		{"DownTPOTFactor", func(a *AutoscaleOptions) { a.DownTPOTFactor = inf }},
		{"UpQueue", func(a *AutoscaleOptions) { a.UpQueue = nan }},
		{"DownQueue", func(a *AutoscaleOptions) { a.DownQueue = -1 }},
		{"KVPressure", func(a *AutoscaleOptions) { a.KVPressure = nan }},
		{"UpArrivalRate", func(a *AutoscaleOptions) { a.UpArrivalRate = inf }},
	} {
		opt := testOptions(2, nil)
		opt.Autoscale = DefaultAutoscale(1, 4, workload.SLO{TokenLatency: units.Milliseconds(8)})
		tc.edit(opt.Autoscale)
		_, err := New(sys, cfg, opt)
		if err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("autoscale %s %+v: got error %v, want one naming %s", tc.field, *opt.Autoscale, err, tc.field)
		}
	}

	c, err := New(sys, cfg, testOptions(2, nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(nil); err == nil {
		t.Error("empty stream should fail")
	}
	// A validation failure must not consume the single-use cluster.
	if _, err := c.Run(workload.GeneralQA().Generate(4, 1)); err != nil {
		t.Errorf("run after rejected empty stream: %v", err)
	}
	if _, err := c.Run(workload.GeneralQA().Generate(4, 1)); err == nil {
		t.Error("second completed Run should fail")
	}
}

func TestNegativeArrivalDoesNotPanic(t *testing.T) {
	// A request with a negative arrival is "already waiting at start" in
	// the single-engine path; the cluster must accept it too instead of
	// panicking on a before-time-zero event.
	reqs := []workload.Request{
		{ID: 0, InputLen: 16, OutputLen: 4, Arrival: units.Seconds(-1)},
		{ID: 1, InputLen: 16, OutputLen: 4},
	}
	f := mustRun(t, RoundRobin(), 2, reqs)
	if f.Tokens != 8 || len(f.Requests) != 2 {
		t.Fatalf("fleet result = %d tokens, %d requests", f.Tokens, len(f.Requests))
	}
}

func TestRouterByName(t *testing.T) {
	for _, name := range []string{"round-robin", "least-outstanding", "kv-headroom"} {
		r, err := RouterByName(name)
		if err != nil || r.Name() != name {
			t.Errorf("RouterByName(%q) = %v, %v", name, r, err)
		}
	}
	if _, err := RouterByName("random"); err == nil {
		t.Error("unknown router should fail")
	}
}
