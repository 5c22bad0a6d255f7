package serving

import (
	"github.com/papi-sim/papi/internal/units"
	"github.com/papi-sim/papi/internal/workload"
)

// RequestMetrics records one request's latency experience — the quantities
// online serving SLOs are written against (§3.2(a)).
type RequestMetrics struct {
	ID int
	// TTFT is time to first token: from run start (static batching) or from
	// the request's arrival (continuous batching) to the end of the
	// iteration that committed its first output token. Prefill is included.
	TTFT units.Seconds
	// TPOT is the mean time per output token after the first — the
	// steady-state decode cadence. A single-token request has no
	// inter-token gap, so its TPOT is 0 by definition; Score grades such
	// requests by their TTFT-inclusive completion time instead.
	TPOT units.Seconds
	// Completion is when the request finished, on the same clock as TTFT.
	Completion units.Seconds
	// OutputTokens is the number of tokens the request produced.
	OutputTokens int
	// Class is the request's priority class (interactive or batch).
	Class workload.Class
	// Preemptions counts how many times the request was evicted from the
	// active batch and requeued (batch-class requests under KV pressure).
	Preemptions int
}

// Score is the latency the per-token SLO grades: the request's TPOT, or,
// for a request of at most one output token (no inter-token gap, so TPOT is
// 0 by definition), its TTFT-inclusive completion time — the lone token
// must arrive within the SLO bound measured from the request's epoch.
// Grading such requests by TPOT would grade them against an undefined
// quantity.
func (r RequestMetrics) Score() units.Seconds {
	if r.OutputTokens <= 1 {
		return r.Completion
	}
	return r.TPOT
}

// SLOAttainment returns the fraction of requests whose Score meets the
// per-token SLO.
func SLOAttainment(reqs []RequestMetrics, slo workload.SLO) float64 {
	if len(reqs) == 0 {
		return 0
	}
	met := 0
	for _, r := range reqs {
		if slo.Met(r.Score()) {
			met++
		}
	}
	return float64(met) / float64(len(reqs))
}

// SLOAttainmentClass scores only the requests of one priority class against
// the per-token SLO (same Score as SLOAttainment). It returns 1 when the
// class is absent from the set: an empty tier violates nothing.
func SLOAttainmentClass(reqs []RequestMetrics, slo workload.SLO, class workload.Class) float64 {
	met, n := 0, 0
	for _, r := range reqs {
		if r.Class != class {
			continue
		}
		n++
		if slo.Met(r.Score()) {
			met++
		}
	}
	if n == 0 {
		return 1
	}
	return float64(met) / float64(n)
}

// Completion is one request that reached <|eos|> in a Step, with its
// latency record.
type Completion struct {
	Request workload.Request
	Metrics RequestMetrics
}

// observe commits n tokens to the request over a window of iterations, the
// first ending at first and the last at last, measured against the
// request's epoch. A window is equivalent to one observe per iteration: only
// the first iteration (which fixes TTFT for a fresh request) and the last
// (which fixes Completion) are observable.
//
//papivet:noalloc
func (r *request) observe(n int, first, last, epoch units.Seconds) {
	if r.generated == 0 {
		r.ttft = first - epoch
	}
	r.generated += n
	r.completion = last - epoch
}

// metrics builds the request's latency record from the tokens it has
// committed so far. A single-token request keeps TPOT = 0: there is no
// inter-token gap to average (see RequestMetrics.TPOT and Score).
//
//papivet:noalloc
func (r *request) metrics() RequestMetrics {
	rm := RequestMetrics{ID: r.ID, TTFT: r.ttft, Completion: r.completion,
		OutputTokens: r.generated, Class: r.Class, Preemptions: r.preempted}
	if rm.OutputTokens > 1 {
		rm.TPOT = (rm.Completion - rm.TTFT) / units.Seconds(rm.OutputTokens-1)
	}
	return rm
}
