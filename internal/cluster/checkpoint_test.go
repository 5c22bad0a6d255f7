package cluster

import (
	"bytes"
	"reflect"
	"testing"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/serving"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// runSegment drives one constant-memory fleet run over a request slice —
// a "segment" of a longer run split across processes.
func runSegment(t *testing.T, reqs []workload.Request) *FleetResult {
	t.Helper()
	c, err := New(newPAPI, model.LLaMA65B(), Options{
		Replicas: 2,
		MaxBatch: 8,
		Router:   LeastOutstanding(),
		Serving:  serving.DefaultOptions(1),
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

// TestCheckpointRoundTrip: Export → Import reproduces the checkpoint exactly,
// and re-exporting yields identical bytes (the byte-stable contract).
func TestCheckpointRoundTrip(t *testing.T) {
	f := runSegment(t, tieredStream(t, 48, 3))
	cp := f.Checkpoint()
	data, err := cp.Export()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ImportCheckpoint(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cp, back) {
		t.Fatalf("checkpoint did not survive the round trip:\n%+v\n%+v", cp, back)
	}
	again, err := back.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Fatal("re-export is not byte-stable")
	}
	if cp.String() == "" {
		t.Fatal("empty checkpoint rendering")
	}
}

// TestCheckpointMergeOfSegments pins the split-run contract: merging two
// segment checkpoints sums every counter and merges the latency sketches
// exactly as folding both segments' aggregates directly would — the merged
// digest, attainment, and availability are those of everything the segments
// served.
func TestCheckpointMergeOfSegments(t *testing.T) {
	reqs := tieredStream(t, 64, 9)
	half := len(reqs) / 2
	second := append([]workload.Request(nil), reqs[half:]...)
	base := second[0].Arrival
	for i := range second {
		second[i].Arrival -= base
	}
	a := runSegment(t, reqs[:half])
	b := runSegment(t, second)

	merged := a.Checkpoint()
	if err := merged.Merge(b.Checkpoint()); err != nil {
		t.Fatal(err)
	}

	if merged.Runs != 2 {
		t.Fatalf("merged %d segments, want 2", merged.Runs)
	}
	if merged.Completed != a.Completed+b.Completed || merged.Tokens != a.Tokens+b.Tokens {
		t.Fatalf("merged counters diverged: %d completed / %d tokens, want %d / %d",
			merged.Completed, merged.Tokens, a.Completed+b.Completed, a.Tokens+b.Tokens)
	}
	wantMakespan := a.Makespan
	if b.Makespan > wantMakespan {
		wantMakespan = b.Makespan
	}
	if merged.Makespan != wantMakespan {
		t.Errorf("merged makespan %v, want the longer segment's %v", merged.Makespan, wantMakespan)
	}
	if merged.ReplicaSeconds != a.ReplicaSeconds+b.ReplicaSeconds {
		t.Errorf("merged replica-seconds %v, want %v", merged.ReplicaSeconds, a.ReplicaSeconds+b.ReplicaSeconds)
	}

	// The merged sketches must equal folding both aggregates directly.
	want := newFleetAggregate()
	want.merge(a.Agg)
	want.merge(b.Agg)
	if got := merged.TTFT(); got != want.TTFT.Summary() {
		t.Errorf("merged TTFT digest %+v, direct fold %+v", got, want.TTFT.Summary())
	}
	if got := merged.TPOT(); got != want.TPOT.Summary() {
		t.Errorf("merged TPOT digest %+v, direct fold %+v", got, want.TPOT.Summary())
	}
	slo := workload.SLO{TokenLatency: units.Milliseconds(10)}
	wantAtt := float64(want.metCount(slo)) / float64(want.Completed)
	if got := merged.Attainment(slo); got != wantAtt {
		t.Errorf("merged attainment %v, direct fold %v", got, wantAtt)
	}
	if got := merged.Availability(); got != 1 {
		t.Errorf("merged availability %v, want 1 (no failures)", got)
	}
}

// TestCheckpointMergeRejectsMismatch: segments of different fleets must not
// silently sum.
func TestCheckpointMergeRejectsMismatch(t *testing.T) {
	f := runSegment(t, workload.GeneralQA().Poisson(8, 40, 5))
	a, b := f.Checkpoint(), f.Checkpoint()
	b.System = "other"
	if err := a.Merge(b); err == nil {
		t.Error("merge across systems should fail")
	}
	c := f.Checkpoint()
	c.Model = "other"
	if err := a.Merge(c); err == nil {
		t.Error("merge across models should fail")
	}
}

// TestImportCheckpointRejectsCorrupt covers the validation fence: bad JSON,
// wrong version, missing aggregate, and a counter/aggregate ledger mismatch.
func TestImportCheckpointRejectsCorrupt(t *testing.T) {
	f := runSegment(t, workload.GeneralQA().Poisson(8, 40, 5))
	good, err := f.Checkpoint().Export()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := func(mutate func(c *Checkpoint)) []byte {
		c, err := ImportCheckpoint(good)
		if err != nil {
			t.Fatal(err)
		}
		mutate(c)
		data, err := c.Export()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"not-json":      []byte("{"),
		"wrong-version": corrupt(func(c *Checkpoint) { c.Version = 99 }),
		"no-aggregate":  corrupt(func(c *Checkpoint) { c.Agg = nil }),
		"ledger-drift":  corrupt(func(c *Checkpoint) { c.Completed++ }),
		"bad-runs":      corrupt(func(c *Checkpoint) { c.Runs = 0 }),

		"negative-tokens":          corrupt(func(c *Checkpoint) { c.Tokens = -1 }),
		"negative-lost-tokens":     corrupt(func(c *Checkpoint) { c.LostTokens = -1 }),
		"negative-preemptions":     corrupt(func(c *Checkpoint) { c.Preemptions = -1 }),
		"negative-faults":          corrupt(func(c *Checkpoint) { c.Faults = -1 }),
		"negative-retries":         corrupt(func(c *Checkpoint) { c.Retries = -1 }),
		"negative-shed":            corrupt(func(c *Checkpoint) { c.Shed = -1 }),
		"negative-peak-replicas":   corrupt(func(c *Checkpoint) { c.PeakReplicas = -1 }),
		"negative-makespan":        corrupt(func(c *Checkpoint) { c.Makespan = -1 }),
		"negative-replica-seconds": corrupt(func(c *Checkpoint) { c.ReplicaSeconds = -1 }),
		"negative-energy":          corrupt(func(c *Checkpoint) { c.EnergyJoules = -1 }),
	}
	for name, data := range cases {
		if _, err := ImportCheckpoint(data); err == nil {
			t.Errorf("%s: corrupt checkpoint imported cleanly", name)
		}
	}
}

// FuzzCheckpointImport hardens the decoder against arbitrary bytes: it must
// reject or accept, never panic, and every accepted checkpoint must survive a
// byte-stable re-export round trip.
func FuzzCheckpointImport(f *testing.F) {
	seedRun := func(n int, seed int64) []byte {
		c, err := New(newPAPI, model.LLaMA65B(), Options{
			Replicas: 2, MaxBatch: 8, Serving: serving.DefaultOptions(1)})
		if err != nil {
			f.Fatal(err)
		}
		res, err := c.Run(workload.GeneralQA().Poisson(n, 40, seed))
		if err != nil {
			f.Fatal(err)
		}
		data, err := res.Checkpoint().Export()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Add(seedRun(8, 1))
	f.Add(seedRun(24, 7))
	f.Add([]byte("{}"))
	f.Add([]byte(`{"version":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ImportCheckpoint(data)
		if err != nil {
			return
		}
		out, err := c.Export()
		if err != nil {
			t.Fatalf("accepted checkpoint failed to export: %v", err)
		}
		back, err := ImportCheckpoint(out)
		if err != nil {
			t.Fatalf("accepted checkpoint failed to re-import: %v", err)
		}
		again, err := back.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out, again) {
			t.Fatal("accepted checkpoint is not byte-stable")
		}
	})
}
