package serving

import (
	"strings"
	"testing"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

func TestContinuousCompletesAll(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	reqs := workload.GeneralQA().Poisson(24, 50, 3)
	res, err := e.RunContinuous(reqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	var want int
	for _, r := range reqs {
		want += r.OutputLen
	}
	if res.Tokens != want {
		t.Fatalf("tokens = %d, want %d", res.Tokens, want)
	}
	if res.Iterations == 0 || res.DecodeTime <= 0 {
		t.Fatalf("suspicious result: %+v", res)
	}
}

func TestContinuousRespectsMaxBatch(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	reqs := workload.GeneralQA().Generate(32, 5) // all arrive at t=0
	res, err := e.RunContinuous(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, rlp := range res.RLPTrace {
		if rlp > 4 {
			t.Fatalf("iteration %d ran %d requests, max batch 4", i, rlp)
		}
	}
}

func TestContinuousRLPGrowsAndShrinks(t *testing.T) {
	// The §3.2 dynamics: admissions raise runtime RLP, completions lower it.
	e := mustEngine(t, newPAPI(), model.GPT3_66B(), DefaultOptions(1))
	reqs := workload.GeneralQA().Poisson(30, 20, 7)
	res, err := e.RunContinuous(reqs, 16)
	if err != nil {
		t.Fatal(err)
	}
	grew, shrank := false, false
	for i := 1; i < len(res.RLPTrace); i++ {
		if res.RLPTrace[i] > res.RLPTrace[i-1] {
			grew = true
		}
		if res.RLPTrace[i] < res.RLPTrace[i-1] {
			shrank = true
		}
	}
	if !grew || !shrank {
		t.Fatalf("RLP should both grow and shrink under continuous batching (grew=%v shrank=%v)", grew, shrank)
	}
}

func TestContinuousIdleTime(t *testing.T) {
	// Requests far apart in time leave the system idle between them.
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	reqs := []workload.Request{
		{ID: 0, InputLen: 32, OutputLen: 4, Arrival: 0},
		{ID: 1, InputLen: 32, OutputLen: 4, Arrival: units.Seconds(100)},
	}
	res, err := e.RunContinuous(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.IdleTime <= units.Seconds(50) {
		t.Fatalf("idle time = %v, want most of the 100 s gap", res.IdleTime)
	}
	if res.TotalTime() < units.Seconds(100) {
		t.Fatalf("makespan %v shorter than last arrival", res.TotalTime())
	}
}

func TestContinuousValidation(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	if _, err := e.RunContinuous(nil, 4); err == nil {
		t.Fatal("empty stream should fail")
	}
	if _, err := e.RunContinuous(workload.GeneralQA().Generate(4, 1), 0); err == nil {
		t.Fatal("zero max batch should fail")
	}
}

func TestContinuousOversizedRequestErrors(t *testing.T) {
	// A single request whose KV exceeds the whole pool can never be admitted;
	// the engine must fail loudly instead of spinning.
	e := mustEngine(t, newPAPI(), model.GPT3_175B(), DefaultOptions(1))
	huge := []workload.Request{{ID: 0, InputLen: 200000, OutputLen: 200000}}
	_, err := e.RunContinuous(huge, 4)
	if err == nil || !strings.Contains(err.Error(), "KV footprint") {
		t.Fatalf("expected capacity error, got %v", err)
	}
}

func TestContinuousVsStaticThroughput(t *testing.T) {
	// With bursty arrivals, continuous batching keeps utilisation up; for a
	// ready batch its behaviour degrades to static batching.
	cfg := model.LLaMA65B()
	reqs := workload.GeneralQA().Generate(8, 11)
	cont := mustEngine(t, newPAPI(), cfg, DefaultOptions(1))
	stat := mustEngine(t, newPAPI(), cfg, DefaultOptions(1))
	rc, err := cont.RunContinuous(reqs, 8)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := stat.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(rc.TotalTime()) / float64(rs.TotalTime())
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("ready-batch continuous/static = %.3f, want ≈1", ratio)
	}
}
