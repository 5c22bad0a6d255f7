package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/workload"
)

// TestRunRejectsBadFlags: every numeric flag value no run can mean returns
// an error naming the flag — never a panic, never a silently accepted run.
func TestRunRejectsBadFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	trace := writeTrace(t)
	empty := filepath.Join(t.TempDir(), "empty.json")
	if err := os.WriteFile(empty, []byte(`{"name":"empty","seed":1,"faults":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// replay points a run at the saved trace, leaving -requests at its
	// default as a replay must.
	replay := func(o *options) { o.traceIn, o.requests = trace, defaultOptions().requests }
	for _, tc := range []struct {
		name string
		set  func(o *options)
		want string
	}{
		{"requests negative", func(o *options) { o.requests = -5 }, "-requests"},
		{"requests zero", func(o *options) { o.requests = 0 }, "-requests"},
		{"rate negative", func(o *options) { o.rate = -3 }, "-rate"},
		{"rate zero", func(o *options) { o.rate = 0 }, "-rate"},
		{"rate NaN", func(o *options) { o.rate = nan }, "-rate"},
		{"rate infinite", func(o *options) { o.rate = inf }, "-rate"},
		{"slo negative", func(o *options) { o.sloMS = -1 }, "-slo"},
		{"slo NaN", func(o *options) { o.sloMS = nan }, "-slo"},
		{"slo infinite", func(o *options) { o.sloMS = inf }, "-slo"},
		{"classes NaN", func(o *options) { o.classes = nan }, "-classes"},
		{"timeout NaN", func(o *options) { o.timeoutS = nan }, "-timeout"},
		{"timeout infinite", func(o *options) { o.timeoutS = inf }, "-timeout"},
		{"kv-cold infinite", func(o *options) { o.kvBlocks, o.kvCold = 16, inf }, "-kv-cold"},
		{"kv-cold NaN", func(o *options) { o.kvBlocks, o.kvCold = 16, nan }, "-kv-cold"},
		{"kv-cold minus infinity", func(o *options) { o.kvBlocks, o.kvCold = 16, -inf }, "-kv-cold"},
		{"kv-cold huge", func(o *options) { o.kvBlocks, o.kvCold = 16, 1e30 }, "cold-tier factor"},
		{"sweep NaN", func(o *options) { o.sweep = "5,nan" }, "sweep rate"},
		{"sweep with zero replicas", func(o *options) { o.sweep, o.replicas = "5", 0 }, "-replicas"},
		{"sweep with negative replicas", func(o *options) { o.sweep, o.replicas = "5", -3 }, "-replicas"},
		{"sweep with zero maxbatch", func(o *options) { o.sweep, o.maxBatch = "5", 0 }, "-maxbatch"},
		{"sweep with negative maxbatch", func(o *options) { o.sweep, o.maxBatch = "5", -2 }, "-maxbatch"},
		{"replicas zero", func(o *options) { o.replicas = 0 }, "-replicas"},
		{"maxbatch zero", func(o *options) { o.maxBatch = 0 }, "-maxbatch"},
		{"target above one", func(o *options) { o.sweep, o.target = "5", 7 }, "-target"},
		{"target NaN", func(o *options) { o.sweep, o.target = "5", nan }, "-target"},
		{"target negative", func(o *options) { o.sweep, o.target = "5", -0.5 }, "-target"},
		{"sweep with spec", func(o *options) { o.sweep, o.spec = "5", 4 }, "-spec"},
		{"sweep with router", func(o *options) { o.sweep, o.routerName = "5", "round-robin" }, "-router"},
		{"sweep with seed", func(o *options) { o.sweep, o.seed = "5", 7 }, "-seed"},
		{"sweep with rate", func(o *options) { o.sweep, o.rate = "5", 30 }, "-rate"},
		{"sweep with kv-blocks", func(o *options) { o.sweep, o.kvBlocks = "5", 16 }, "-kv-blocks"},
		{"sweep with retain-requests", func(o *options) { o.sweep, o.retainRequests = "5", true }, "-retain-requests"},
		{"sweep with checkpoint", func(o *options) { o.sweep, o.checkpoint = "5", "sweep.json" }, "-checkpoint"},
		{"sweep names every conflict", func(o *options) { o.sweep, o.spec, o.checkpoint = "5", 4, "sweep.json" }, "-spec, -checkpoint"},
		{"target without sweep", func(o *options) { o.target = 0.5 }, "-target"},
		{"kv-cold without kv-blocks", func(o *options) { o.kvCold = 8 }, "-kv-cold"},
		{"sweep with kv-cold", func(o *options) { o.sweep, o.kvCold = "5", 8 }, "-kv-cold"},
		{"scenario with rate", func(o *options) { o.scenario, o.rate = "chat-multiturn", 5 }, "-rate"},
		{"scenario with dataset", func(o *options) { o.scenario, o.dataset = "chat-multiturn", "creative-writing" }, "-dataset"},
		{"scenario names every ignored flag", func(o *options) {
			o.scenario, o.rate, o.dataset, o.classes = "chat-multiturn", 5, "creative-writing", 0.4
		}, "-dataset, -rate, -classes"},
		{"trace with rate", func(o *options) { replay(o); o.rate = 5 }, "-rate"},
		{"trace with dataset", func(o *options) { replay(o); o.dataset = "creative-writing" }, "-dataset"},
		{"trace with requests", func(o *options) { replay(o); o.requests = 3 }, "-requests"},
		{"trace names every ignored flag", func(o *options) {
			replay(o)
			o.rate, o.requests, o.classes = 5, 3, 0.4
		}, "-rate, -classes, -requests"},
		{"retries without faults or timeout", func(o *options) { o.retries = 7 }, "-retries"},
		{"retries with an empty fault plan", func(o *options) { o.faults, o.retries = empty, 7 }, "-retries"},
		{"sweep with retries", func(o *options) { o.sweep, o.retries = "5", 7 }, "-retries"},
	} {
		o := testOptions()
		tc.set(&o)
		err := run(o)
		if err == nil {
			t.Errorf("%s: run accepted the bad value", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.want)
		}
	}
	if err := run(testOptions()); err != nil {
		t.Fatalf("good options rejected: %v", err)
	}
	// The sweep accepts the flag defaults, which include its own seed.
	sweep := testOptions()
	sweep.sweep = "5"
	if err := run(sweep); err != nil {
		t.Fatalf("default sweep rejected: %v", err)
	}
	// Closed-loop plans run under the same barrier driver as open-loop
	// streams.
	plan := testOptions()
	plan.scenario, plan.replicas = "chat-multiturn", 2
	if err := run(plan); err != nil {
		t.Fatalf("plan scenario rejected: %v", err)
	}
	// A replay at the flag defaults, and -retries with a -timeout to retry,
	// both run.
	rep := testOptions()
	replay(&rep)
	if err := run(rep); err != nil {
		t.Fatalf("trace replay rejected: %v", err)
	}
	retry := testOptions()
	retry.retries, retry.timeoutS = 7, 5
	if err := run(retry); err != nil {
		t.Fatalf("-retries with -timeout rejected: %v", err)
	}
	// papiserve -requests 4 -kv-blocks 16 -kv-cold 1e4: a 10⁴× cold tier
	// of 16-token blocks spans about 2.5 × 10⁸ block IDs, which the store
	// must mint on demand rather than allocate up front.
	cold := defaultOptions()
	cold.requests, cold.kvBlocks, cold.kvCold = 4, 16, 1e4
	if err := run(cold); err != nil {
		t.Fatalf("large cold tier rejected: %v", err)
	}
}

// testOptions is the flag defaults on a small fleet and stream.
func testOptions() options {
	o := defaultOptions()
	o.replicas, o.requests = 1, 8
	return o
}

// writeTrace saves a four-request trace for the replay rows.
func writeTrace(t *testing.T) string {
	t.Helper()
	data, err := workload.NewTrace("test", "", 1, workload.GeneralQA().Poisson(4, 20, 1)).Export()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
