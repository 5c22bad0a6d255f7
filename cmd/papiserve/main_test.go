package main

import (
	"math"
	"strings"
	"testing"
)

// TestRunRejectsBadFlags: every numeric flag value no run can mean returns
// an error naming the flag — never a panic, never a silently accepted run.
func TestRunRejectsBadFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
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
	// Closed-loop plans run under the same barrier driver as open-loop
	// streams, so they shard too.
	plan := testOptions()
	plan.scenario, plan.replicas, plan.shards = "chat-multiturn", 2, 2
	if err := run(plan); err != nil {
		t.Fatalf("sharded plan scenario rejected: %v", err)
	}
}

// testOptions mirrors the flag defaults on a small fleet and stream.
func testOptions() options {
	return options{
		design: "PAPI", modelName: "LLaMA-65B", dataset: "general-qa",
		routerName: "least-outstanding", replicas: 1, requests: 8, maxBatch: 16,
		spec: 1, seed: 42, rate: 20, sloMS: 12, target: 0.9, kvCold: 4,
		retries: 2, shards: 1,
	}
}
