package serving

import (
	"testing"

	"github.com/papi-sim/papi/internal/model"
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

func TestBatchRequestMetrics(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	reqs := fixedBatch(4, 64, 32)
	res, err := e.RunBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 4 {
		t.Fatalf("metrics for %d requests, want 4", len(res.Requests))
	}
	for _, rm := range res.Requests {
		if rm.TTFT <= res.PrefillTime {
			t.Errorf("request %d: TTFT %v must exceed prefill %v", rm.ID, rm.TTFT, res.PrefillTime)
		}
		if rm.Completion < rm.TTFT {
			t.Errorf("request %d: completion %v before first token %v", rm.ID, rm.Completion, rm.TTFT)
		}
		if rm.OutputTokens != 32 {
			t.Errorf("request %d: %d tokens, want 32", rm.ID, rm.OutputTokens)
		}
		if rm.TPOT <= 0 {
			t.Errorf("request %d: non-positive TPOT %v", rm.ID, rm.TPOT)
		}
		if rm.Completion > res.TotalTime() {
			t.Errorf("request %d: completion %v beyond makespan %v", rm.ID, rm.Completion, res.TotalTime())
		}
	}
	// Uniform outputs at TLP=1: every request finishes at the same instant.
	for _, rm := range res.Requests[1:] {
		if rm.Completion != res.Requests[0].Completion {
			t.Errorf("uniform batch should complete together: %v vs %v",
				rm.Completion, res.Requests[0].Completion)
		}
	}
}

func TestBatchTPOTMatchesIterationTime(t *testing.T) {
	// With TLP=1 each live request gets one token per iteration, so TPOT ≈
	// average iteration time while the batch is full.
	e := mustEngine(t, newA100AttAcc(), model.LLaMA65B(), DefaultOptions(1))
	res, err := e.RunBatch(fixedBatch(4, 64, 32))
	if err != nil {
		t.Fatal(err)
	}
	avgIter := float64(res.DecodeTime) / float64(res.Iterations)
	got := float64(res.Requests[0].TPOT)
	if got < avgIter*0.9 || got > avgIter*1.1 {
		t.Fatalf("TPOT %v vs mean iteration %v", res.Requests[0].TPOT, units.Seconds(avgIter))
	}
}

func TestContinuousMetricsRelativeToArrival(t *testing.T) {
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	reqs := []workload.Request{
		{ID: 0, InputLen: 32, OutputLen: 8, Arrival: 0},
		{ID: 1, InputLen: 32, OutputLen: 8, Arrival: units.Seconds(5)},
	}
	res, err := e.RunContinuous(reqs, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Requests) != 2 {
		t.Fatalf("metrics for %d requests", len(res.Requests))
	}
	// The late request's TTFT is measured from its own arrival, so it must
	// be far below the 5 s gap.
	for _, rm := range res.Requests {
		if rm.TTFT > units.Seconds(1) {
			t.Errorf("request %d: TTFT %v should be request-relative", rm.ID, rm.TTFT)
		}
	}
}

func TestSLOAttainment(t *testing.T) {
	ms := []RequestMetrics{
		{ID: 0, OutputTokens: 8, TPOT: units.Milliseconds(10)},
		{ID: 1, OutputTokens: 8, TPOT: units.Milliseconds(20)},
		{ID: 2, OutputTokens: 8, TPOT: units.Milliseconds(40)},
	}
	slo := workload.SLO{TokenLatency: units.Milliseconds(25)}
	if got := SLOAttainment(ms, slo); got != 2.0/3 {
		t.Fatalf("attainment = %v, want 2/3", got)
	}
	if got := SLOAttainment(nil, slo); got != 0 {
		t.Fatalf("empty attainment = %v", got)
	}
	if got := SLOAttainment(ms, workload.SLO{}); got != 1 {
		t.Fatalf("unbounded SLO attainment = %v, want 1", got)
	}
}

func TestSLOAttainmentSingleToken(t *testing.T) {
	// Single-token requests are scored by TTFT-inclusive completion, not by
	// their (zero, undefined) TPOT — so a slow prefill still counts against
	// the SLO, and a fast one is not penalised by a fictional TPOT.
	slo := workload.SLO{TokenLatency: units.Milliseconds(25)}
	fast := RequestMetrics{ID: 0, OutputTokens: 1, Completion: units.Milliseconds(10)}
	slow := RequestMetrics{ID: 1, OutputTokens: 1, Completion: units.Milliseconds(50)}
	if got := SLOAttainment([]RequestMetrics{fast, slow}, slo); got != 0.5 {
		t.Fatalf("single-token attainment = %v, want 0.5", got)
	}
}

func TestSingleTokenTPOT(t *testing.T) {
	// A one-token request has no inter-token gap; its TPOT is 0 by
	// definition and its SLO experience is judged by completion time.
	e := mustEngine(t, newPAPI(), model.LLaMA65B(), DefaultOptions(1))
	res, err := e.RunBatch([]workload.Request{{ID: 0, InputLen: 16, OutputLen: 1}})
	if err != nil {
		t.Fatal(err)
	}
	rm := res.Requests[0]
	if rm.OutputTokens != 1 || rm.TPOT != 0 {
		t.Fatalf("single-token metrics = %+v, want TPOT 0", rm)
	}
	if rm.Completion != rm.TTFT {
		t.Fatalf("single-token completion %v != TTFT %v", rm.Completion, rm.TTFT)
	}
}
